//! Classification of one served request into success or a failure kind.

use std::io;

/// Request classes of the served request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// The same mini unit every time: store hits and coalescing.
    Hot,
    /// A distinct mini seed: engine run plus store write.
    Cold,
    /// A second repeated mini unit, distinct from `Hot`.
    Dup,
    /// Text TDV analysis: never reaches the engine.
    Analyze,
    /// A body over the size cap: refused with 413 at admission.
    Oversized,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 5] = [
        Class::Hot,
        Class::Cold,
        Class::Dup,
        Class::Analyze,
        Class::Oversized,
    ];

    /// Report name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Class::Hot => "hot",
            Class::Cold => "cold",
            Class::Dup => "dup",
            Class::Analyze => "analyze",
            Class::Oversized => "oversized",
        }
    }

    /// The only status that counts as success for this class.
    #[must_use]
    pub fn expected_status(self) -> u16 {
        match self {
            Class::Oversized => 413,
            _ => 200,
        }
    }
}

/// Why a request counts as failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Failure {
    /// 503 shed at admission (never retried).
    Shed,
    /// The socket read or write timed out.
    Timeout,
    /// Any other transport error.
    Io,
    /// A status other than the class's expected one (and not 503).
    UnexpectedStatus(u16),
    /// The expected status with a body that fails the class's check.
    WrongBody,
}

/// Classify one request: `status` is the response status or the
/// transport error, `body_ok` the class's body check (consulted only
/// when the status is the expected one).
///
/// # Errors
///
/// The [`Failure`] kind when the request does not count as a success.
pub fn classify(
    class: Class,
    status: Result<u16, &io::Error>,
    body_ok: impl FnOnce() -> bool,
) -> Result<(), Failure> {
    match status {
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) =>
        {
            Err(Failure::Timeout)
        }
        Err(_) => Err(Failure::Io),
        Ok(503) => Err(Failure::Shed),
        Ok(s) if s != class.expected_status() => Err(Failure::UnexpectedStatus(s)),
        Ok(_) if body_ok() => Ok(()),
        Ok(_) => Err(Failure::WrongBody),
    }
}

/// `failed / attempted`, `0` when nothing was attempted.
#[must_use]
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oversized_413_is_success_and_elsewhere_a_failure() {
        assert_eq!(classify(Class::Oversized, Ok(413), || true), Ok(()));
        for class in [Class::Hot, Class::Cold, Class::Dup, Class::Analyze] {
            assert_eq!(
                classify(class, Ok(413), || true),
                Err(Failure::UnexpectedStatus(413))
            );
        }
        assert_eq!(
            classify(Class::Oversized, Ok(200), || true),
            Err(Failure::UnexpectedStatus(200))
        );
    }

    #[test]
    fn shed_is_a_failure_for_every_class() {
        for class in Class::ALL {
            assert_eq!(classify(class, Ok(503), || true), Err(Failure::Shed));
        }
    }

    #[test]
    fn transport_errors_split_into_timeout_and_io() {
        let timeout = io::Error::new(io::ErrorKind::TimedOut, "slow");
        let would_block = io::Error::new(io::ErrorKind::WouldBlock, "slow");
        let reset = io::Error::new(io::ErrorKind::ConnectionReset, "reset");
        assert_eq!(
            classify(Class::Hot, Err(&timeout), || true),
            Err(Failure::Timeout)
        );
        assert_eq!(
            classify(Class::Cold, Err(&would_block), || true),
            Err(Failure::Timeout)
        );
        assert_eq!(
            classify(Class::Analyze, Err(&reset), || true),
            Err(Failure::Io)
        );
    }

    #[test]
    fn wrong_body_only_checked_on_the_expected_status() {
        assert_eq!(
            classify(Class::Hot, Ok(200), || false),
            Err(Failure::WrongBody)
        );
        let mut consulted = false;
        let _ = classify(Class::Hot, Ok(500), || {
            consulted = true;
            true
        });
        assert!(!consulted);
    }

    #[test]
    fn failed_frac_counts_against_attempted() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(1, 4), 0.25);
    }
}
