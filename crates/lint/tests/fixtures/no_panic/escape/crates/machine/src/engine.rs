pub fn escape(x: Option<u32>) -> u32 {
    // allow-panic: demonstration of the escape hatch.
    x.unwrap()
}

pub fn same_line(x: Option<u32>) -> u32 {
    x.expect("checked by caller") // allow-panic: caller invariant
}

pub fn window(x: Option<u32>) -> u32 {
    // allow-panic: marker three lines above still counts.
    //
    //
    x.unwrap()
}

pub fn comparing(a: u32, b: u32) {
    // allow-panic: documented caller contract.
    assert_eq!(a, b);
    assert_ne!(a, 0); // allow-panic: same contract
}
