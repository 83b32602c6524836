//! Fixture: the directive rule — an unused waiver, a reasonless
//! waiver, and a waiver naming an unknown rule.

// audit: allow(hotpath) -- nothing on this line or the next allocates
pub fn clean() -> u8 {
    1
}

// audit: allow(determinism)
pub fn reasonless() -> u8 {
    2
}

// audit: allow(panics) -- a rule clippy holds now, not this tool
pub fn unknown_rule() -> u8 {
    3
}
