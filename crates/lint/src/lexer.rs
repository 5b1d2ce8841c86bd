//! A minimal comment/string/attribute-aware scanner for Rust source.
//!
//! Not a parser: it classifies every character of a file as CODE, COMMENT,
//! or STRING and derives three per-line views, plus the line spans of
//! `#[cfg(test)]`-gated items. That is exactly the power the lint rules
//! need — token presence/absence with justification comments nearby — and
//! exactly what the old awk/grep tier-1 gates lacked (they matched inside
//! strings and doc comments, and stopped at a file's *first*
//! `#[cfg(test)]` line, truncating the scan instead of skipping the
//! module).
//!
//! Handled: line comments (`//`, `///`, `//!`), nested block comments
//! (`/* /* */ */`), string literals with escapes, raw and byte strings
//! (`r"…"`, `r#"…"#`, `b"…"`, `br##"…"##`), char literals vs lifetimes
//! (`'a'` vs `'a`), and multi-item / nested `#[cfg(test)]` regions found
//! by brace matching rather than first-occurrence truncation.

/// The classified views of one source file.
pub struct Lexed {
    /// Source lines with comment text and string/char-literal contents
    /// blanked to spaces (delimiters included). Token searches run here.
    pub code: Vec<String>,
    /// Per-line comment text (line, block, and doc comments), delimiters
    /// stripped. Justification markers (`allow-panic:`, `SAFETY:`, …) are
    /// looked up here, so a marker inside a string cannot satisfy a rule.
    pub comments: Vec<String>,
    /// Per-line string-literal contents. Site-string searches in test
    /// files run here (`"shard:prepare"` in a chaos test is a string).
    pub strings: Vec<String>,
    /// `test[i]` is true when line `i` belongs to a `#[cfg(test)]`-gated
    /// item (the attribute line through the item's closing brace).
    pub test: Vec<bool>,
}

enum State {
    Code,
    LineComment,
    /// Nesting depth.
    BlockComment(u32),
    /// Ordinary or byte string; escapes active.
    Str,
    /// Raw (byte) string terminated by `"` followed by N hashes.
    RawStr(u32),
}

/// Where the next character of each class lands.
struct Sink {
    code: Vec<String>,
    comments: Vec<String>,
    strings: Vec<String>,
}

impl Sink {
    fn new() -> Self {
        Sink {
            code: vec![String::new()],
            comments: vec![String::new()],
            strings: vec![String::new()],
        }
    }

    fn newline(&mut self) {
        self.code.push(String::new());
        self.comments.push(String::new());
        self.strings.push(String::new());
    }

    fn put_code(&mut self, c: char) {
        self.code.last_mut().expect("sink always holds one line").push(c);
        self.comments.last_mut().expect("sink always holds one line").push(' ');
        self.strings.last_mut().expect("sink always holds one line").push(' ');
    }

    fn put_comment(&mut self, c: char) {
        self.code.last_mut().expect("sink always holds one line").push(' ');
        self.comments.last_mut().expect("sink always holds one line").push(c);
        self.strings.last_mut().expect("sink always holds one line").push(' ');
    }

    fn put_string(&mut self, c: char) {
        self.code.last_mut().expect("sink always holds one line").push(' ');
        self.comments.last_mut().expect("sink always holds one line").push(' ');
        self.strings.last_mut().expect("sink always holds one line").push(c);
    }
}

fn is_ident(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Classifies `src` into per-line code/comment/string views and marks
/// `#[cfg(test)]` item spans.
pub fn lex(src: &str) -> Lexed {
    let chars: Vec<char> = src.chars().collect();
    let mut sink = Sink::new();
    let mut state = State::Code;
    let mut i = 0usize;

    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            // A line comment ends at the newline; every other state
            // (block comment, string) carries across it.
            if matches!(state, State::LineComment) {
                state = State::Code;
            }
            sink.newline();
            i += 1;
            continue;
        }
        match state {
            State::Code => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('/') {
                    state = State::LineComment;
                    sink.put_comment(' ');
                    sink.put_comment(' ');
                    i += 2;
                } else if c == '/' && next == Some('*') {
                    state = State::BlockComment(1);
                    sink.put_comment(' ');
                    sink.put_comment(' ');
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    sink.put_string(' ');
                    i += 1;
                } else if (c == 'r' || c == 'b')
                    && (i == 0 || !is_ident(chars[i - 1]))
                    && raw_or_byte_prefix(&chars, i).is_some()
                {
                    let (consumed, raw_hashes) =
                        raw_or_byte_prefix(&chars, i).expect("checked by the guard above");
                    for _ in 0..consumed {
                        sink.put_string(' ');
                    }
                    i += consumed;
                    state = match raw_hashes {
                        Some(h) => State::RawStr(h),
                        None => State::Str,
                    };
                } else if c == '\'' {
                    if let Some(len) = char_literal_len(&chars, i) {
                        for _ in 0..len {
                            sink.put_string(' ');
                        }
                        i += len;
                    } else {
                        // Lifetime: the quote and its ident are code.
                        sink.put_code(c);
                        i += 1;
                    }
                } else {
                    sink.put_code(c);
                    i += 1;
                }
            }
            State::LineComment => {
                sink.put_comment(c);
                i += 1;
            }
            State::BlockComment(depth) => {
                let next = chars.get(i + 1).copied();
                if c == '/' && next == Some('*') {
                    state = State::BlockComment(depth + 1);
                    sink.put_comment(' ');
                    sink.put_comment(' ');
                    i += 2;
                } else if c == '*' && next == Some('/') {
                    state = if depth == 1 { State::Code } else { State::BlockComment(depth - 1) };
                    sink.put_comment(' ');
                    sink.put_comment(' ');
                    i += 2;
                } else {
                    sink.put_comment(c);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    sink.put_string(' ');
                    if let Some(&esc) = chars.get(i + 1) {
                        if esc != '\n' {
                            sink.put_string(' ');
                        } else {
                            sink.newline();
                        }
                        i += 2;
                    } else {
                        i += 1;
                    }
                } else if c == '"' {
                    sink.put_string(' ');
                    state = State::Code;
                    i += 1;
                } else {
                    sink.put_string(c);
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' && closes_raw(&chars, i, hashes) {
                    for _ in 0..(1 + hashes as usize) {
                        sink.put_string(' ');
                    }
                    i += 1 + hashes as usize;
                    state = State::Code;
                } else {
                    sink.put_string(c);
                    i += 1;
                }
            }
        }
    }

    let test = test_spans(&sink.code);
    Lexed { code: sink.code, comments: sink.comments, strings: sink.strings, test }
}

/// If `chars[i..]` starts a raw/byte string prefix (`r"`, `r#…#"`, `b"`,
/// `br"`, `br#…#"`), returns `(prefix_len_including_quote, raw_hashes)`
/// where `raw_hashes` is `None` for the escapable `b"…"` form.
fn raw_or_byte_prefix(chars: &[char], i: usize) -> Option<(usize, Option<u32>)> {
    let mut j = i;
    let mut raw = false;
    if chars.get(j) == Some(&'b') {
        j += 1;
    }
    if chars.get(j) == Some(&'r') {
        raw = true;
        j += 1;
    }
    if j == i {
        return None;
    }
    let mut hashes = 0u32;
    if raw {
        while chars.get(j) == Some(&'#') {
            hashes += 1;
            j += 1;
        }
    }
    if chars.get(j) == Some(&'"') {
        Some((j - i + 1, raw.then_some(hashes)))
    } else {
        None
    }
}

/// Whether the `"` at `chars[i]` is followed by `hashes` `#` characters.
fn closes_raw(chars: &[char], i: usize, hashes: u32) -> bool {
    (1..=hashes as usize).all(|k| chars.get(i + k) == Some(&'#'))
}

/// If `chars[i] == '\''` begins a char literal (not a lifetime), returns
/// its total length including both quotes.
fn char_literal_len(chars: &[char], i: usize) -> Option<usize> {
    match chars.get(i + 1)? {
        '\\' => {
            // Escape: scan to the closing quote within a short window
            // (`'\u{10FFFF}'` is the longest form).
            let mut j = i + 2;
            let limit = (i + 12).min(chars.len());
            while j < limit {
                if chars[j] == '\'' {
                    return Some(j - i + 1);
                }
                j += 1;
            }
            None
        }
        _ => {
            // `'x'` is a literal; `'x` (no closing quote) is a lifetime.
            (chars.get(i + 2) == Some(&'\'')).then_some(3)
        }
    }
}

/// Marks the line span of every `#[cfg(test)]`-gated item by brace
/// matching from the attribute, so a file may hold any number of test
/// modules anywhere, and code after them is still scanned.
fn test_spans(code: &[String]) -> Vec<bool> {
    let mut test = vec![false; code.len()];
    for start in 0..code.len() {
        if test[start] || !is_cfg_test_attr(&code[start]) {
            continue;
        }
        // Find the gated item's body: the first `{` (brace-match to its
        // close) or terminating `;` after the attribute. Later attributes
        // and the item header are scanned through transparently.
        let col0 = code[start]
            .chars()
            .collect::<Vec<_>>()
            .windows(2)
            .position(|w| w == ['#', '['])
            .unwrap_or(0);
        let mut depth = 0usize;
        let mut end = start;
        'scan: for (li, line) in code.iter().enumerate().skip(start) {
            let from = if li == start { col0 } else { 0 };
            for ch in line.chars().skip(from) {
                match ch {
                    '{' => depth += 1,
                    '}' => {
                        depth = depth.saturating_sub(1);
                        if depth == 0 {
                            end = li;
                            break 'scan;
                        }
                    }
                    ';' if depth == 0 => {
                        end = li;
                        break 'scan;
                    }
                    _ => {}
                }
            }
            end = li;
        }
        for t in test.iter_mut().take(end + 1).skip(start) {
            *t = true;
        }
    }
    test
}

/// Whether a code line carries a `#[cfg(test)]` (or `#![cfg(test)]`)
/// attribute. Runs on the blanked code view, so the phrase inside a
/// comment or string does not count.
fn is_cfg_test_attr(code_line: &str) -> bool {
    if !code_line.contains("#[") && !code_line.contains("#![") {
        return false;
    }
    let squashed: String = code_line.chars().filter(|c| !c.is_whitespace()).collect();
    squashed.contains("cfg(test)")
}
