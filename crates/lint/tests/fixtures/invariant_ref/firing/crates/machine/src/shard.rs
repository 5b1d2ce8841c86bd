// Peers write through published windows (invariant 3).
pub fn publish() {}

/// Sound by Invariant 2, and by invariants 7 and 1.
pub fn read() {}

#[cfg(test)]
mod tests {
    // A test may cite what it likes: invariant 9.
}
