//! Output checks and the failure tally behind `error_rate`.

/// fp16 unit roundoff: the kernels declare fp16 tensors, so outputs are
/// held to the precision the schedule promises, not to exact `f32`.
pub const FP16_EPS: f32 = 1.0 / 1024.0;

/// Operations attempted and failed. An operation fails when the
/// program returns an error, refuses it, or produces a wrong output.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failure messages, for the log.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one operation with its verdict.
    pub fn record(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = verdict {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(e);
            }
        }
    }

    /// Adds another tally (a client thread's) into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.notes.extend(other.notes.into_iter().take(8usize.saturating_sub(self.notes.len())));
    }

    /// Failed / attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Every element within fp16 tolerance of the reference:
/// `|got - want| <= eps16 * (1 + |want|)`.
pub fn close(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} outputs, expected {}", got.len(), want.len()));
    }
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        if !g.is_finite() || (g - w).abs() > FP16_EPS * (1.0 + w.abs()) {
            return Err(format!("{what}: element {i} is {g}, reference {w}"));
        }
    }
    Ok(())
}

/// Bit-for-bit equality via `f32::to_bits`.
pub fn bits_equal(got: &[f32], want: &[f32], what: &str) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{what}: {} outputs, expected {}", got.len(), want.len()));
    }
    match got.iter().zip(want).position(|(g, w)| g.to_bits() != w.to_bits()) {
        None => Ok(()),
        Some(i) => Err(format!("{what}: element {i} differs in bits ({} vs {})", got[i], want[i])),
    }
}

/// A daemon checksum (a float sum printed to six decimals, summed in
/// an unspecified order) against the benchmark's own sum. This is a
/// tolerance check, not a bit-identity check: the allowed error scales
/// with the magnitude `scale` of the summed values.
pub fn checksum_close(got: f64, want: f64, scale: f64, what: &str) -> Result<(), String> {
    let tol = 1e-6 * scale + 1e-4;
    if (got - want).abs() <= tol {
        Ok(())
    } else {
        Err(format!("{what}: checksum {got} vs expected {want} (tolerance {tol})"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_planted_wrong_output_raises_error_rate() {
        let want: Vec<f32> = (0..64).map(|i| i as f32 * 0.25 - 8.0).collect();
        let mut tally = Tally::default();
        tally.record(close(&want, &want, "clean"));
        tally.record(bits_equal(&want, &want, "clean"));
        assert_eq!(tally.error_rate(), 0.0);

        let mut planted = want.clone();
        planted[17] += 0.5;
        tally.record(close(&planted, &want, "planted"));
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!(tally.error_rate() > 0.0);

        // One flipped low bit passes the tolerance check but not the
        // bitwise one.
        let mut ulp = want.clone();
        ulp[3] = f32::from_bits(ulp[3].to_bits() ^ 1);
        assert!(close(&ulp, &want, "ulp").is_ok());
        tally.record(bits_equal(&ulp, &want, "ulp"));
        assert_eq!(tally.failed, 2);

        tally.record(checksum_close(100.5, 100.0, 1000.0, "sum"));
        assert_eq!(tally.failed, 3);
        tally.record(checksum_close(100.000_001, 100.0, 1000.0, "sum"));
        assert_eq!((tally.attempted, tally.failed), (6, 3));
    }

    #[test]
    fn nan_and_length_mismatch_fail() {
        assert!(close(&[f32::NAN], &[0.0], "nan").is_err());
        assert!(close(&[0.0], &[0.0, 1.0], "len").is_err());
        assert!(bits_equal(&[0.0], &[], "len").is_err());
    }
}
