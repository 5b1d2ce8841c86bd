//! Docs mentioning `.unwrap()` and `panic!` never fire.

/// Call `.unwrap()` at your peril — this doc comment is not code.
pub fn clean(x: Option<u32>) -> u32 {
    let s = "contains .unwrap() and panic! and assert!(false) and assert_eq!(1, 2)";
    let t = r#"raw with .expect("x")"#;
    /* block comment: .unwrap() panic! assert!(true) */
    debug_assert!(!s.is_empty());
    debug_assert_eq!(s.len(), s.len());
    debug_assert_ne!(t.len(), 0);
    x.unwrap_or(0)
}

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        Some(1u32).unwrap();
        panic!("fine in tests");
    }
}
