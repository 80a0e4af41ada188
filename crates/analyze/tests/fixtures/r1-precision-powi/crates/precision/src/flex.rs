// R1 fixture: a software-float format widening through a runtime-exponent
// `powi` instead of building the bit pattern.
pub fn widen(frac: u32, exp: i32) -> f64 {
    (1.0 + frac as f64 / 8.0) * 2f64.powi(exp - 7)
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference_may_use_powi() {
        assert_eq!(super::widen(0, 7), 2f64.powi(0));
    }
}
