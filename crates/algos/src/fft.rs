//! The n-FFT problem (Section 4.2): evaluate the n-input FFT DAG.
//!
//! [`RecursiveFft`] is the paper's network-oblivious algorithm on `M(n)`: the
//! FFT DAG is decomposed into two sets of √n-input subDAGs; segments of
//! consecutive VPs evaluate the first set recursively, a transposition
//! permutation redistributes the intermediate values, and the segments
//! recursively evaluate the second set. At recursion level `i` the supersteps
//! have label `(1 − 1/2^i)·log n` and degree `O(1)`, giving (Thm. 4.5)
//!
//! ```text
//! H_FFT(n, p, σ) = O((n/p + σ)·log n / log(n/p)),
//! ```
//!
//! `Θ(1)`-optimal for `σ = O(n/p)` against Lemma 4.4.
//!
//! [`BinaryExchangeFft`] is the classic one-level baseline: `log n` butterfly
//! rounds, costing `H = Θ((n/p + σ)·log p)` — asymptotically worse whenever
//! `p` is large enough that `log p ≫ log n / log(n/p)`.
//!
//! Both algorithms compute the DFT with outputs in bit-reversed order (the
//! natural order of the FFT DAG); `extract` undoes the reversal so callers
//! see the natural-order spectrum. Values are double-precision [`Complex`]
//! numbers; [`naive_dft`] is the `O(n²)` correctness oracle.

use crate::common::{bit_reverse, ilog2, wiseness_route};
use nob_machine::{Ctx, Inbox, NobAlgorithm, Program, Route, Xor};

/// A double-precision complex number (the FFT value type).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Builds `re + i·im`.
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Complex addition. (Deliberately an inherent method, not `std::ops`:
    /// the algorithm code calls these explicitly and the type stays a plain
    /// value pair.)
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Complex) -> Complex {
        Complex::new(self.re + o.re, self.im + o.im)
    }

    /// Complex subtraction.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Complex) -> Complex {
        Complex::new(self.re - o.re, self.im - o.im)
    }

    /// Complex multiplication.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, o: Complex) -> Complex {
        Complex::new(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }

    /// The twiddle factor `ω_den^num = exp(−2πi·num/den)`.
    #[inline]
    pub fn twiddle(num: usize, den: usize) -> Complex {
        let angle = -2.0 * std::f64::consts::PI * (num as f64) / (den as f64);
        Complex::new(angle.cos(), angle.sin())
    }

    /// Approximate equality with absolute tolerance `eps`.
    pub fn close_to(self, o: Complex, eps: f64) -> bool {
        (self.re - o.re).abs() <= eps && (self.im - o.im).abs() <= eps
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f64 {
        self.re * self.re + self.im * self.im
    }
}

/// The `O(n²)` reference DFT (natural input and output order).
pub fn naive_dft(xs: &[Complex]) -> Vec<Complex> {
    let n = xs.len();
    (0..n)
        .map(|k| {
            let mut acc = Complex::default();
            for (t, &x) in xs.iter().enumerate() {
                acc = acc.add(x.mul(Complex::twiddle(t * k % n, n)));
            }
            acc
        })
        .collect()
}

/// Per-VP state: the single resident value.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FftState {
    val: Complex,
}

/// What the previous superstep left in the inbox.
#[derive(Debug, Clone, Copy)]
enum Pending {
    /// Nothing (first superstep).
    None,
    /// A permutation delivered our new value.
    Perm,
    /// A butterfly partner's value: combine `a ± b`.
    Bfly,
}

fn do_pending(st: &mut FftState, ctx: &Ctx, inbox: &mut Inbox<'_, Complex>, pending: Pending) {
    match pending {
        Pending::None => {}
        Pending::Perm => {
            debug_assert_eq!(inbox.len(), 1);
            st.val = inbox.pop().expect("permutation message");
        }
        Pending::Bfly => {
            let other = inbox.pop().expect("butterfly partner message");
            st.val = if ctx.vp & 1 == 0 { st.val.add(other) } else { other.sub(st.val) };
        }
    }
}

/// The network-oblivious recursive FFT (Section 4.2). Supports every power
/// of two `n ≥ 2`; for `n` not of the form `2^{2^k}` the DAG splits into
/// `2^{⌈(log n)/2⌉}`- and `2^{⌊(log n)/2⌋}`-input subDAGs, as the paper notes.
#[derive(Debug, Clone)]
pub struct RecursiveFft {
    /// Emit wiseness dummy messages (default: true). These are exactly the
    /// paper's: one dummy from `VP_j` to `VP_{j+m/2}` in each superstep of a
    /// level working on m-input subDAGs.
    pub wise: bool,
}

impl Default for RecursiveFft {
    fn default() -> Self {
        RecursiveFft { wise: true }
    }
}

impl RecursiveFft {
    /// Creates the algorithm, choosing whether to emit wiseness dummies.
    pub fn new(wise: bool) -> Self {
        RecursiveFft { wise }
    }

    /// Whether `n` is a supported size (any power of two ≥ 2).
    pub fn supports(n: usize) -> bool {
        n >= 2 && n.is_power_of_two()
    }
}

/// Emits the schedule evaluating m-input subDAGs on aligned m-segments.
fn emit_fft(
    prog: &mut Program<FftState, Complex>,
    n: usize,
    m: usize,
    pending: &mut Pending,
    wise: bool,
) {
    let log_v = ilog2(n);
    if m == 2 {
        // Base: exchange with the sibling; the combine happens at the next
        // superstep's ingest (Pending::Bfly). The pattern is the static
        // pair-exchange permutation, declared as an oblivious route.
        let p = *pending;
        prog.step_oblivious(
            log_v - 1,
            "fft-butterfly",
            1,
            Xor(1),
            move |st, ctx, inbox, out| {
                do_pending(st, ctx, inbox, p);
                out.send(st.val);
            },
        );
        *pending = Pending::Bfly;
        return;
    }
    let label = log_v - ilog2(m);
    let m1 = 1usize << ilog2(m).div_ceil(2);
    let m2 = m / m1;
    let out_degree = if wise { 2 } else { 1 };

    // Transpose: u = t1·m2 + t2  →  t2·m1 + t1, so each column of the m1×m2
    // view becomes one aligned m1-segment. A pure permutation (plus the
    // wiseness dummy), i.e. a static route.
    {
        let p = *pending;
        prog.step_oblivious(
            label,
            "fft-transpose",
            out_degree,
            move |ctx: &Ctx, k| {
                if k > 0 {
                    return wiseness_route(ctx, label, 1, k - 1);
                }
                let base = ctx.vp - ctx.vp % m;
                let off = ctx.vp - base;
                let (t1, t2) = (off / m2, off % m2);
                Route::Data(base + t2 * m1 + t1)
            },
            move |st, ctx, inbox, out| {
                do_pending(st, ctx, inbox, p);
                out.send(st.val);
            },
        );
        *pending = Pending::Perm;
    }

    // First set of subDAGs: m2 independent m1-input FFTs.
    emit_fft(prog, n, m1, pending, wise);

    // Twiddle + transpose back: position t2·m1 + t1' holds Â_{t2}[k1] with
    // k1 = rev(t1'); multiply by ω_m^{t2·k1} and send to t1'·m2 + t2.
    {
        let p = *pending;
        let lg_m1 = ilog2(m1);
        prog.step_oblivious(
            label,
            "fft-twiddle",
            out_degree,
            move |ctx: &Ctx, k| {
                if k > 0 {
                    return wiseness_route(ctx, label, 1, k - 1);
                }
                let base = ctx.vp - ctx.vp % m;
                let off = ctx.vp - base;
                let (t2, t1p) = (off / m1, off % m1);
                Route::Data(base + t1p * m2 + t2)
            },
            move |st, ctx, inbox, out| {
                do_pending(st, ctx, inbox, p);
                let off = ctx.vp % m;
                let (t2, t1p) = (off / m1, off % m1);
                let k1 = bit_reverse(t1p, lg_m1);
                st.val = st.val.mul(Complex::twiddle(t2 * k1 % m, m));
                out.send(st.val);
            },
        );
        *pending = Pending::Perm;
    }

    // Second set of subDAGs: m1 independent m2-input FFTs.
    emit_fft(prog, n, m2, pending, wise);
}

impl NobAlgorithm for RecursiveFft {
    type State = FftState;
    type Msg = Complex;
    type Input = [Complex];
    type Output = Vec<Complex>;

    fn name(&self) -> String {
        format!("fft-recursive(wise={})", self.wise)
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[Complex]) -> Vec<FftState> {
        assert!(Self::supports(n), "RecursiveFft supports powers of two, got {n}");
        assert_eq!(input.len(), n);
        input.iter().map(|&val| FftState { val }).collect()
    }

    fn build(&self, n: usize) -> Program<FftState, Complex> {
        assert!(Self::supports(n), "RecursiveFft supports powers of two, got {n}");
        let mut prog = Program::new(n, n);
        let log_v = prog.log_v();
        let mut pending = Pending::None;
        emit_fft(&mut prog, n, n, &mut pending, self.wise);
        let p = pending;
        prog.step_oblivious(
            log_v - 1,
            "fft-finalize",
            0,
            |_: &Ctx, _| Route::Skip,
            move |st, ctx, inbox, _out| {
                do_pending(st, ctx, inbox, p);
            },
        );
        prog
    }

    fn extract(&self, n: usize, states: Vec<FftState>) -> Vec<Complex> {
        // The DAG leaves the spectrum in bit-reversed order; undo it.
        let bits = ilog2(n);
        (0..n).map(|k| states[bit_reverse(k, bits)].val).collect()
    }
}

/// The classic binary-exchange FFT: one butterfly round per bit, highest
/// stride first (DIF). The round pairing VPs that differ in bit
/// `log n − 1 − l` is an `l`-superstep. Included as the flat class-C
/// baseline for Thm 4.5 and Cor 4.6.
#[derive(Debug, Clone, Default)]
pub struct BinaryExchangeFft;

impl BinaryExchangeFft {
    /// Whether `n` is a supported size (any power of two ≥ 2).
    pub fn supports(n: usize) -> bool {
        n >= 2 && n.is_power_of_two()
    }
}

/// Completes the DIF butterfly of the round with stride `d` (block `2d`).
/// `tw` is the program's one twiddle table (`tw[j] = ω_n^j` for `j < n / 2`,
/// built once per program by [`twiddle_table`]), and the round reads
/// `ω_{2d}^j = ω_n^{j·n/2d}` at stride `step = n / 2d` — bit-for-bit the
/// value [`Complex::twiddle`]`(j, 2d)` would produce (the two angles differ
/// by the power-of-two factor `n / 2d` in numerator and denominator, so
/// they round alike), without paying `cos`/`sin` per VP on the execution
/// hot path.
fn binex_combine(
    st: &mut FftState,
    ctx: &Ctx,
    inbox: &mut Inbox<'_, Complex>,
    d: usize,
    step: usize,
    tw: &[Complex],
) {
    debug_assert_eq!(d * step, tw.len());
    let other = inbox.pop().expect("butterfly partner message");
    st.val = if ctx.vp & d == 0 {
        st.val.add(other)
    } else {
        other.sub(st.val).mul(tw[(ctx.vp & (d - 1)) * step])
    };
}

/// The twiddle table of an `n`-input binary-exchange FFT, shared by all its
/// rounds: `tw[j] = ω_n^j` for `j < n / 2`.
fn twiddle_table(n: usize) -> std::sync::Arc<[Complex]> {
    (0..n / 2).map(|j| Complex::twiddle(j, n)).collect()
}

impl NobAlgorithm for BinaryExchangeFft {
    type State = FftState;
    type Msg = Complex;
    type Input = [Complex];
    type Output = Vec<Complex>;

    fn name(&self) -> String {
        "fft-binary-exchange".to_string()
    }

    fn v(&self, n: usize) -> usize {
        n
    }

    fn init(&self, n: usize, input: &[Complex]) -> Vec<FftState> {
        assert!(Self::supports(n), "BinaryExchangeFft supports powers of two, got {n}");
        assert_eq!(input.len(), n);
        input.iter().map(|&val| FftState { val }).collect()
    }

    fn build(&self, n: usize) -> Program<FftState, Complex> {
        assert!(Self::supports(n), "BinaryExchangeFft supports powers of two, got {n}");
        let mut prog = Program::new(n, n);
        let log_n = prog.log_v();
        let tw = twiddle_table(n);
        // Round l's combine stride equals round l-1's send stride; each
        // round hands it, with its twiddle step, to the next step's closure.
        let mut prev: Option<(usize, usize)> = None;
        for l in 0..log_n {
            let d = n >> (l + 1);
            let (combine, tw) = (prev.take(), tw.clone());
            prog.step_oblivious(l, "binex-round", 1, Xor(d), move |st, ctx, inbox, out| {
                if let Some((pd, step)) = combine {
                    binex_combine(st, ctx, inbox, pd, step, &tw);
                }
                out.send(st.val);
            });
            prev = Some((d, n / (2 * d)));
        }
        let (pd, step) = prev.expect("log_n >= 1 for supported sizes");
        prog.step_oblivious(
            log_n - 1,
            "binex-finalize",
            0,
            |_: &Ctx, _| Route::Skip,
            move |st, ctx, inbox, _out| {
                binex_combine(st, ctx, inbox, pd, step, &tw);
            },
        );
        prog
    }

    fn extract(&self, n: usize, states: Vec<FftState>) -> Vec<Complex> {
        let bits = ilog2(n);
        (0..n).map(|k| states[bit_reverse(k, bits)].val).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nob_core::lower_bounds;
    use nob_machine::{execute, execute_folded, RunOptions};

    fn impulse_and_tone(n: usize) -> Vec<Complex> {
        (0..n)
            .map(|t| {
                let phase = 2.0 * std::f64::consts::PI * 3.0 * (t as f64) / n as f64;
                Complex::new(phase.cos() + if t == 0 { 1.0 } else { 0.0 }, 0.3 * phase.sin())
            })
            .collect()
    }

    fn assert_spectra_match(got: &[Complex], want: &[Complex], n: usize) {
        let eps = 1e-9 * (n as f64) * 4.0;
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(g.close_to(*w, eps), "bin {k}: {g:?} vs {w:?}");
        }
    }

    #[test]
    fn recursive_fft_matches_naive_dft() {
        for lg in 1..=10 {
            let n = 1usize << lg;
            let xs = impulse_and_tone(n);
            let want = naive_dft(&xs);
            let (got, _) =
                execute(&RecursiveFft::default(), n, &xs[..], &RunOptions::default()).unwrap();
            assert_spectra_match(&got, &want, n);
        }
    }

    #[test]
    fn binary_exchange_matches_naive_dft() {
        for lg in 1..=10 {
            let n = 1usize << lg;
            let xs = impulse_and_tone(n);
            let want = naive_dft(&xs);
            let (got, _) =
                execute(&BinaryExchangeFft, n, &xs[..], &RunOptions::default()).unwrap();
            assert_spectra_match(&got, &want, n);
        }
    }

    #[test]
    fn the_shared_twiddle_table_is_every_rounds_table_bit_for_bit() {
        for n in [1usize << 4, 1 << 10, 1 << 14] {
            let tw = twiddle_table(n);
            let mut d = n / 2;
            while d >= 1 {
                let step = n / (2 * d);
                for j in 0..d {
                    let (got, want) = (tw[j * step], Complex::twiddle(j, 2 * d));
                    assert_eq!(got.re.to_bits(), want.re.to_bits(), "n {n} d {d} j {j} re");
                    assert_eq!(got.im.to_bits(), want.im.to_bits(), "n {n} d {d} j {j} im");
                }
                d /= 2;
            }
        }
    }

    #[test]
    fn the_two_algorithms_agree() {
        let n = 256;
        let xs = impulse_and_tone(n);
        let (a, _) = execute(&RecursiveFft::default(), n, &xs[..], &RunOptions::default()).unwrap();
        let (b, _) = execute(&BinaryExchangeFft, n, &xs[..], &RunOptions::default()).unwrap();
        assert_spectra_match(&a, &b, n);
    }

    #[test]
    fn folding_preserves_output_and_metrics() {
        let n = 64;
        let xs = impulse_and_tone(n);
        let alg = RecursiveFft::default();
        let (full, full_trace) = execute(&alg, n, &xs[..], &RunOptions::default()).unwrap();
        for p in [2usize, 8, 64] {
            let (out, trace) = execute_folded(&alg, n, &xs[..], p, &RunOptions::default()).unwrap();
            assert_spectra_match(&out, &full, n);
            let mut q = 2;
            while q <= p {
                assert_eq!(trace.fold(q), full_trace.fold(q));
                q *= 2;
            }
        }
    }

    #[test]
    fn labels_follow_the_recursive_decomposition() {
        // For n = 2^8 the top-level transposes are 0-supersteps, the √n
        // levels use label (1−1/2)·log n = 4, then 6, 7.
        let n = 256;
        let xs = impulse_and_tone(n);
        let (_, trace) =
            execute(&RecursiveFft::default(), n, &xs[..], &RunOptions::default()).unwrap();
        let s = trace.s_counts();
        assert_eq!(s[0], 2, "two top-level transposes");
        assert!(s[4] > 0, "level-1 supersteps at label 4");
        assert!(s[1] == 0 && s[2] == 0 && s[3] == 0, "no intermediate labels: {s:?}");
    }

    #[test]
    fn communication_complexity_matches_theorem_4_5() {
        let n = 4096;
        let xs = impulse_and_tone(n);
        let (_, trace) =
            execute(&RecursiveFft::new(false), n, &xs[..], &RunOptions::default()).unwrap();
        for p in [16usize, 256, 4096] {
            for sigma in [0.0, 8.0] {
                let measured = trace.comm_complexity(p, sigma);
                let theory = lower_bounds::upper::fft(n, p, sigma);
                let ratio = measured / theory;
                assert!(
                    ratio > 0.2 && ratio < 12.0,
                    "p={p} sigma={sigma}: measured/theory = {ratio}"
                );
            }
        }
        // Against Lemma 4.4's Ω(n·log n/(p·log(n/p)) + σ): the measured
        // factor peaks at 9.7 (p = 2048, σ = 16), where the S·σ term of the
        // log n/log(n/p) supersteps dominates.
        for p in [2usize, 8, 32, 128, 512, 2048] {
            for sigma in [0.0, 16.0] {
                let ratio = trace.comm_complexity(p, sigma) / lower_bounds::fft(n, p, sigma);
                assert!(ratio < 12.0, "p={p} sigma={sigma}: measured/LB = {ratio}");
            }
        }
    }

    #[test]
    fn recursive_beats_binary_exchange_at_scale() {
        // Thm 4.5's point: for p near n the binary-exchange H picks up a full
        // log p factor while the oblivious algorithm pays log n/log(n/p).
        let n = 1024;
        let xs = impulse_and_tone(n);
        let (_, t_rec) =
            execute(&RecursiveFft::new(false), n, &xs[..], &RunOptions::default()).unwrap();
        let (_, t_bin) = execute(&BinaryExchangeFft, n, &xs[..], &RunOptions::default()).unwrap();
        let hr = t_rec.comm_complexity(32, 0.0);
        let hb = t_bin.comm_complexity(32, 0.0);
        assert!(hr < hb, "recursive {hr} vs binary-exchange {hb}");
    }
}
