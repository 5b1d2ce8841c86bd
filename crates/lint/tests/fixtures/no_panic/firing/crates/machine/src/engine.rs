pub fn early() {}

#[cfg(test)]
mod tests {
    #[test]
    fn fine_here() {
        let x: Option<u32> = Some(1);
        x.unwrap();
    }
}

pub fn after_tests(x: Option<u32>) -> u32 {
    // The old awk gate stopped scanning at the first #[cfg(test)] above;
    // everything from here down is the false-negative class it missed.
    let a = x.unwrap();
    let b = x.expect("boom");
    assert!(a > 0);
    if a == 3 {
        panic!("bad");
    }
    assert_eq!(a, b, "the comparing forms panic just the same");
    assert_ne!(a, 7);
    a + b
}
