// The one-arena writer (invariant 2 of `mailbox`); the invariants hold.
pub fn publish() {}

/// Sound by Invariant 2, and by invariants 1 and 2.
pub fn read() {}

#[cfg(test)]
mod tests {
    // A test may cite what it likes: invariant 9.
}
