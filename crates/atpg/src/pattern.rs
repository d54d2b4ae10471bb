//! Test cubes, pattern sets, compatibility merging and don't-care fill.
//!
//! A *test cube* assigns 0/1/X to every circuit input; it is the ATPG's
//! native output (only the bits a fault needs are specified). Two cubes
//! are *compatible* when no input is assigned conflicting values — exactly
//! the paper's §3 notion of non-conflicting partial test patterns — and
//! compatible cubes can be merged into one pattern by compaction.

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One bit of a test cube.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Bit {
    /// Specified 0.
    Zero,
    /// Specified 1.
    One,
    /// Don't care.
    #[default]
    X,
}

impl Bit {
    /// Whether the bit is specified (not X).
    #[must_use]
    pub fn is_specified(self) -> bool {
        self != Bit::X
    }

    /// Two bits are compatible if equal or either is X.
    #[must_use]
    pub fn compatible(self, other: Bit) -> bool {
        self == Bit::X || other == Bit::X || self == other
    }

    /// Merge two compatible bits (specified value wins over X).
    ///
    /// # Panics
    ///
    /// Panics if the bits conflict; check [`Bit::compatible`] first.
    #[must_use]
    pub fn merge(self, other: Bit) -> Bit {
        assert!(self.compatible(other), "merging conflicting bits");
        if self == Bit::X {
            other
        } else {
            self
        }
    }

    /// Convert a boolean to a specified bit.
    #[must_use]
    pub fn from_bool(b: bool) -> Bit {
        if b {
            Bit::One
        } else {
            Bit::Zero
        }
    }
}

impl fmt::Display for Bit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Bit::Zero => "0",
            Bit::One => "1",
            Bit::X => "X",
        })
    }
}

/// How to fill don't-care bits when a fully-specified pattern is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FillStrategy {
    /// Fill X with 0 (minimum-transition style).
    Zeros,
    /// Fill X with 1.
    Ones,
    /// Fill X with seeded pseudo-random values (maximises incidental
    /// detection; the ATPG engine's default).
    Random {
        /// RNG seed; the same seed always produces the same fill.
        seed: u64,
    },
}

impl Default for FillStrategy {
    fn default() -> FillStrategy {
        FillStrategy::Random { seed: 0xD1CE }
    }
}

/// A test cube: one 0/1/X assignment per circuit input.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TestCube {
    bits: Vec<Bit>,
}

impl TestCube {
    /// An all-X cube of the given width.
    #[must_use]
    pub fn all_x(width: usize) -> TestCube {
        TestCube {
            bits: vec![Bit::X; width],
        }
    }

    /// Build a cube from bits.
    #[must_use]
    pub fn from_bits(bits: Vec<Bit>) -> TestCube {
        TestCube { bits }
    }

    /// Build a fully-specified cube from booleans.
    #[must_use]
    pub fn from_bools(values: &[bool]) -> TestCube {
        TestCube {
            bits: values.iter().map(|&b| Bit::from_bool(b)).collect(),
        }
    }

    /// Number of inputs this cube spans.
    #[must_use]
    pub fn width(&self) -> usize {
        self.bits.len()
    }

    /// The bits.
    #[must_use]
    pub fn bits(&self) -> &[Bit] {
        &self.bits
    }

    /// Read one bit.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn bit(&self, i: usize) -> Bit {
        self.bits[i]
    }

    /// Set one bit.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, b: Bit) {
        self.bits[i] = b;
    }

    /// Number of specified (non-X) bits — the cube's *care count*.
    #[must_use]
    pub fn specified_count(&self) -> usize {
        self.bits.iter().filter(|b| b.is_specified()).count()
    }

    /// Whether every bit position is compatible with `other`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn compatible(&self, other: &TestCube) -> bool {
        assert_eq!(self.width(), other.width(), "cube width mismatch");
        self.bits
            .iter()
            .zip(&other.bits)
            .all(|(a, b)| a.compatible(*b))
    }

    /// Merge a compatible cube into this one.
    ///
    /// # Panics
    ///
    /// Panics if the cubes conflict or widths differ.
    pub fn merge_in_place(&mut self, other: &TestCube) {
        assert_eq!(self.width(), other.width(), "cube width mismatch");
        for (a, b) in self.bits.iter_mut().zip(&other.bits) {
            *a = a.merge(*b);
        }
    }

    /// Merged copy of two compatible cubes.
    ///
    /// # Panics
    ///
    /// Panics if the cubes conflict or widths differ.
    #[must_use]
    pub fn merged(&self, other: &TestCube) -> TestCube {
        let mut out = self.clone();
        out.merge_in_place(other);
        out
    }

    /// A content hash of the cube (FNV-1a over the trits), used to key
    /// random fill so that equal cubes always fill identically
    /// regardless of their position in a [`TestSet`].
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in &self.bits {
            let v = match b {
                Bit::Zero => 1u64,
                Bit::One => 2,
                Bit::X => 3,
            };
            h ^= v;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }

    /// Fill with the strategy, keying random fill by the cube's content
    /// (see [`TestCube::content_hash`]); deterministic fills pass
    /// through unchanged.
    #[must_use]
    pub fn fill_keyed(&self, strategy: FillStrategy) -> Vec<bool> {
        match strategy {
            FillStrategy::Random { seed } => self.fill(FillStrategy::Random {
                seed: seed ^ self.content_hash(),
            }),
            other => self.fill(other),
        }
    }

    /// Produce a fully-specified boolean pattern by filling X bits.
    #[must_use]
    pub fn fill(&self, strategy: FillStrategy) -> Vec<bool> {
        let mut rng = match strategy {
            FillStrategy::Random { seed } => Some(StdRng::seed_from_u64(seed)),
            _ => None,
        };
        self.bits
            .iter()
            .map(|b| match b {
                Bit::Zero => false,
                Bit::One => true,
                Bit::X => match strategy {
                    FillStrategy::Zeros => false,
                    FillStrategy::Ones => true,
                    FillStrategy::Random { .. } => {
                        rng.as_mut().expect("rng present for random fill").gen()
                    }
                },
            })
            .collect()
    }
}

impl fmt::Display for TestCube {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.bits {
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

impl FromIterator<Bit> for TestCube {
    fn from_iter<I: IntoIterator<Item = Bit>>(iter: I) -> TestCube {
        TestCube {
            bits: iter.into_iter().collect(),
        }
    }
}

/// An ordered set of test cubes of equal width.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TestSet {
    width: usize,
    cubes: Vec<TestCube>,
}

impl TestSet {
    /// An empty set for cubes of the given width.
    #[must_use]
    pub fn new(width: usize) -> TestSet {
        TestSet {
            width,
            cubes: Vec::new(),
        }
    }

    /// The input width each cube spans.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Number of patterns.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cubes.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cubes.is_empty()
    }

    /// Append a cube.
    ///
    /// # Panics
    ///
    /// Panics if the cube width differs from the set width.
    pub fn push(&mut self, cube: TestCube) {
        assert_eq!(cube.width(), self.width, "cube width mismatch");
        self.cubes.push(cube);
    }

    /// The cubes in order.
    #[must_use]
    pub fn cubes(&self) -> &[TestCube] {
        &self.cubes
    }

    /// Iterate over cubes.
    pub fn iter(&self) -> std::slice::Iter<'_, TestCube> {
        self.cubes.iter()
    }

    /// Keep only the cubes at the given (sorted, deduplicated) indices.
    pub fn retain_indices(&mut self, keep: &[usize]) {
        let mut flag = vec![false; self.cubes.len()];
        for &k in keep {
            if k < flag.len() {
                flag[k] = true;
            }
        }
        let mut i = 0;
        self.cubes.retain(|_| {
            let k = flag[i];
            i += 1;
            k
        });
    }

    /// Total stimulus bits if every pattern is applied to all inputs
    /// (`patterns × width`) — the monolithic-view stimulus volume of §3.
    #[must_use]
    pub fn stimulus_bits(&self) -> u64 {
        self.cubes.len() as u64 * self.width as u64
    }

    /// Fill every cube into fully-specified boolean patterns.
    ///
    /// Random fill derives each cube's stream from the cube's *content*
    /// (see [`TestCube::fill_keyed`]), so the filled vector of a given
    /// cube is stable under reordering or subsetting of the set — the
    /// property that keeps fault-coverage accounting consistent across
    /// compaction passes.
    #[must_use]
    pub fn fill_all(&self, strategy: FillStrategy) -> Vec<Vec<bool>> {
        self.cubes.iter().map(|c| c.fill_keyed(strategy)).collect()
    }
}

impl TestSet {
    /// Serialize as plain text: one cube per line, `0`/`1`/`X` per
    /// input. The inverse of [`TestSet::from_text`].
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(self.len() * (self.width + 1));
        for cube in &self.cubes {
            use std::fmt::Write as _;
            let _ = writeln!(out, "{cube}");
        }
        out
    }

    /// Parse the text form produced by [`TestSet::to_text`]: one cube
    /// per line of `0`/`1`/`X` (case-insensitive, `#` comments and blank
    /// lines ignored).
    ///
    /// # Errors
    ///
    /// Returns [`crate::AtpgError::PatternWidth`] if lines disagree in
    /// width, wrapped parse info for bad characters.
    pub fn from_text(text: &str) -> Result<TestSet, crate::error::AtpgError> {
        let mut set: Option<TestSet> = None;
        for raw in text.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let bits: Result<Vec<Bit>, ()> = line
                .chars()
                .map(|c| match c {
                    '0' => Ok(Bit::Zero),
                    '1' => Ok(Bit::One),
                    'x' | 'X' => Ok(Bit::X),
                    _ => Err(()),
                })
                .collect();
            let bits = bits.map_err(|()| crate::error::AtpgError::PatternWidth {
                expected: set.as_ref().map_or(0, TestSet::width),
                got: line.len(),
            })?;
            match &mut set {
                None => {
                    let mut s = TestSet::new(bits.len());
                    s.push(TestCube::from_bits(bits));
                    set = Some(s);
                }
                Some(s) => {
                    if bits.len() != s.width() {
                        return Err(crate::error::AtpgError::PatternWidth {
                            expected: s.width(),
                            got: bits.len(),
                        });
                    }
                    s.push(TestCube::from_bits(bits));
                }
            }
        }
        Ok(set.unwrap_or_default())
    }
}

impl<'a> IntoIterator for &'a TestSet {
    type Item = &'a TestCube;
    type IntoIter = std::slice::Iter<'a, TestCube>;
    fn into_iter(self) -> Self::IntoIter {
        self.cubes.iter()
    }
}

impl Extend<TestCube> for TestSet {
    fn extend<I: IntoIterator<Item = TestCube>>(&mut self, iter: I) {
        for c in iter {
            self.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_compatibility() {
        assert!(Bit::X.compatible(Bit::One));
        assert!(Bit::Zero.compatible(Bit::Zero));
        assert!(!Bit::Zero.compatible(Bit::One));
        assert_eq!(Bit::X.merge(Bit::One), Bit::One);
        assert_eq!(Bit::Zero.merge(Bit::X), Bit::Zero);
    }

    #[test]
    #[should_panic(expected = "conflicting")]
    fn conflicting_merge_panics() {
        let _ = Bit::Zero.merge(Bit::One);
    }

    #[test]
    fn cube_merge() {
        let a = TestCube::from_bits(vec![Bit::One, Bit::X, Bit::Zero, Bit::X]);
        let b = TestCube::from_bits(vec![Bit::X, Bit::Zero, Bit::Zero, Bit::X]);
        assert!(a.compatible(&b));
        let m = a.merged(&b);
        assert_eq!(m.bits(), &[Bit::One, Bit::Zero, Bit::Zero, Bit::X]);
        assert_eq!(m.specified_count(), 3);
    }

    #[test]
    fn cube_conflict_detected() {
        let a = TestCube::from_bits(vec![Bit::One]);
        let b = TestCube::from_bits(vec![Bit::Zero]);
        assert!(!a.compatible(&b));
    }

    #[test]
    fn fill_strategies() {
        let c = TestCube::from_bits(vec![Bit::One, Bit::X, Bit::Zero]);
        assert_eq!(c.fill(FillStrategy::Zeros), vec![true, false, false]);
        assert_eq!(c.fill(FillStrategy::Ones), vec![true, true, false]);
        let r1 = c.fill(FillStrategy::Random { seed: 7 });
        let r2 = c.fill(FillStrategy::Random { seed: 7 });
        assert_eq!(r1, r2, "same seed, same fill");
        assert!(r1[0]);
        assert!(!r1[2]);
    }

    #[test]
    fn set_accounting() {
        let mut s = TestSet::new(3);
        s.push(TestCube::from_bits(vec![Bit::One, Bit::X, Bit::X]));
        s.push(TestCube::from_bits(vec![Bit::X, Bit::Zero, Bit::One]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.stimulus_bits(), 6);
    }

    #[test]
    fn fill_all_is_content_keyed() {
        // Equal cubes fill identically (stable under reordering)...
        let mut s = TestSet::new(16);
        s.push(TestCube::all_x(16));
        s.push(TestCube::all_x(16));
        let filled = s.fill_all(FillStrategy::Random { seed: 3 });
        assert_eq!(filled[0], filled[1], "same content, same fill");
        // ...while different cubes get independent streams.
        let mut t = TestSet::new(16);
        let mut c1 = TestCube::all_x(16);
        c1.set(0, Bit::One);
        let mut c2 = TestCube::all_x(16);
        c2.set(0, Bit::Zero);
        t.push(c1);
        t.push(c2);
        let filled = t.fill_all(FillStrategy::Random { seed: 3 });
        assert_ne!(
            filled[0][1..],
            filled[1][1..],
            "different content, different fill"
        );
    }

    #[test]
    fn fill_stable_under_reordering() {
        let a = TestCube::from_bits(vec![Bit::One, Bit::X, Bit::X, Bit::X]);
        let b = TestCube::from_bits(vec![Bit::X, Bit::Zero, Bit::X, Bit::X]);
        let mut s1 = TestSet::new(4);
        s1.push(a.clone());
        s1.push(b.clone());
        let mut s2 = TestSet::new(4);
        s2.push(b.clone());
        s2.push(a.clone());
        let f1 = s1.fill_all(FillStrategy::default());
        let f2 = s2.fill_all(FillStrategy::default());
        assert_eq!(f1[0], f2[1]);
        assert_eq!(f1[1], f2[0]);
    }

    #[test]
    fn retain_indices_keeps_order() {
        let mut s = TestSet::new(1);
        for b in [Bit::Zero, Bit::One, Bit::X] {
            s.push(TestCube::from_bits(vec![b]));
        }
        s.retain_indices(&[0, 2]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.cubes()[0].bit(0), Bit::Zero);
        assert_eq!(s.cubes()[1].bit(0), Bit::X);
    }

    #[test]
    fn from_iterator() {
        let c: TestCube = [Bit::One, Bit::Zero].into_iter().collect();
        assert_eq!(c.width(), 2);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut s = TestSet::new(2);
        s.push(TestCube::all_x(3));
    }

    #[test]
    fn text_round_trip() {
        let mut s = TestSet::new(4);
        s.push(TestCube::from_bits(vec![
            Bit::One,
            Bit::X,
            Bit::Zero,
            Bit::X,
        ]));
        s.push(TestCube::from_bits(vec![
            Bit::Zero,
            Bit::Zero,
            Bit::One,
            Bit::One,
        ]));
        let text = s.to_text();
        assert_eq!(text, "1X0X\n0011\n");
        let back = TestSet::from_text(&text).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn text_parse_tolerates_comments_and_case() {
        let s = TestSet::from_text("# header\n\n1x0X  # trailing\n").unwrap();
        assert_eq!(s.len(), 1);
        assert_eq!(s.width(), 4);
        assert_eq!(s.cubes()[0].bit(1), Bit::X);
    }

    #[test]
    fn text_parse_rejects_ragged_and_bad_chars() {
        assert!(TestSet::from_text("101\n10\n").is_err());
        assert!(TestSet::from_text("10Z\n").is_err());
        assert!(TestSet::from_text("").unwrap().is_empty());
    }
}
