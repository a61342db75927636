//! Physical quantity newtypes: bandwidth, data size, CPU, and memory.
//!
//! Every quantity that crosses a crate boundary in this workspace is
//! wrapped in a newtype so that, e.g., a link capacity in Mbps can never
//! be confused with a memory amount in MB ([C-NEWTYPE]).

use crate::time::SimDuration;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Network bandwidth, stored as bits per second.
///
/// # Examples
///
/// ```
/// use bass_util::units::Bandwidth;
///
/// let b = Bandwidth::from_mbps(25.0);
/// assert_eq!(b.as_kbps(), 25_000.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Bandwidth(f64);

impl Bandwidth {
    /// Zero bandwidth.
    pub const ZERO: Bandwidth = Bandwidth(0.0);

    /// Creates a bandwidth from bits per second. Negative inputs clamp to
    /// zero: link capacities and allocations are physically non-negative.
    pub fn from_bps(bps: f64) -> Self {
        Bandwidth(bps.max(0.0))
    }

    /// Creates a bandwidth from kilobits per second.
    pub fn from_kbps(kbps: f64) -> Self {
        Self::from_bps(kbps * 1e3)
    }

    /// Creates a bandwidth from megabits per second.
    pub fn from_mbps(mbps: f64) -> Self {
        Self::from_bps(mbps * 1e6)
    }

    /// Whether `mbps` converts to a finite, non-negative bps value: the
    /// check for every Mbps number read from an input file. A finite
    /// Mbps value above `f64::MAX / 1e6` overflows to ∞ bps.
    pub fn valid_mbps(mbps: f64) -> bool {
        let bps = mbps * 1e6;
        bps.is_finite() && bps >= 0.0
    }

    /// Bits per second.
    pub fn as_bps(self) -> f64 {
        self.0
    }

    /// Kilobits per second.
    pub fn as_kbps(self) -> f64 {
        self.0 / 1e3
    }

    /// Megabits per second.
    pub fn as_mbps(self) -> f64 {
        self.0 / 1e6
    }

    /// True when no capacity remains.
    pub fn is_zero(self) -> bool {
        self.0 <= f64::EPSILON
    }

    /// The smaller of two bandwidths (bottleneck composition).
    pub fn min(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.min(other.0))
    }

    /// The larger of two bandwidths.
    pub fn max(self, other: Bandwidth) -> Bandwidth {
        Bandwidth(self.0.max(other.0))
    }

    /// Scales the bandwidth by a non-negative factor.
    pub fn scale(self, factor: f64) -> Bandwidth {
        Self::from_bps(self.0 * factor)
    }

    /// Saturating subtraction: never goes below zero.
    pub fn saturating_sub(self, other: Bandwidth) -> Bandwidth {
        Bandwidth((self.0 - other.0).max(0.0))
    }

    /// The fraction `self / other`, or `f64::INFINITY` when `other` is zero
    /// but self is not, and 0 when both are zero.
    pub fn ratio(self, other: Bandwidth) -> f64 {
        if other.is_zero() {
            if self.is_zero() {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.0 / other.0
        }
    }
}

impl Add for Bandwidth {
    type Output = Bandwidth;
    fn add(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth(self.0 + rhs.0)
    }
}

impl AddAssign for Bandwidth {
    fn add_assign(&mut self, rhs: Bandwidth) {
        self.0 += rhs.0;
    }
}

impl Sub for Bandwidth {
    type Output = Bandwidth;
    fn sub(self, rhs: Bandwidth) -> Bandwidth {
        Bandwidth::from_bps(self.0 - rhs.0)
    }
}

impl SubAssign for Bandwidth {
    fn sub_assign(&mut self, rhs: Bandwidth) {
        *self = *self - rhs;
    }
}

impl Mul<f64> for Bandwidth {
    type Output = Bandwidth;
    fn mul(self, rhs: f64) -> Bandwidth {
        self.scale(rhs)
    }
}

impl Div<f64> for Bandwidth {
    type Output = Bandwidth;
    fn div(self, rhs: f64) -> Bandwidth {
        Bandwidth::from_bps(self.0 / rhs)
    }
}

impl Sum for Bandwidth {
    fn sum<I: Iterator<Item = Bandwidth>>(iter: I) -> Bandwidth {
        iter.fold(Bandwidth::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Bandwidth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1e6 {
            write!(f, "{:.2} Mbps", self.as_mbps())
        } else if self.0 >= 1e3 {
            write!(f, "{:.1} Kbps", self.as_kbps())
        } else {
            write!(f, "{:.0} bps", self.0)
        }
    }
}

/// An amount of data, stored as bytes.
///
/// # Examples
///
/// ```
/// use bass_util::time::SimDuration;
/// use bass_util::units::DataSize;
///
/// // 1 MB every second is exactly 8 Mbps.
/// let rate = DataSize::from_megabytes(1).rate_over(SimDuration::from_secs(1));
/// assert_eq!(rate.as_mbps(), 8.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
#[serde(transparent)]
pub struct DataSize(u64);

impl DataSize {
    /// Zero bytes.
    pub const ZERO: DataSize = DataSize(0);

    /// Creates a size from raw bytes.
    pub const fn from_bytes(bytes: u64) -> Self {
        DataSize(bytes)
    }

    /// Creates a size from kilobytes (1 KB = 1000 B).
    pub const fn from_kilobytes(kb: u64) -> Self {
        DataSize(kb * 1_000)
    }

    /// Creates a size from megabytes (1 MB = 1e6 B).
    pub const fn from_megabytes(mb: u64) -> Self {
        DataSize(mb * 1_000_000)
    }

    /// Raw bytes.
    pub const fn as_bytes(self) -> u64 {
        self.0
    }

    /// Size in bits.
    pub const fn as_bits(self) -> u64 {
        self.0 * 8
    }

    /// The steady rate needed to move this much data every `period`.
    pub fn rate_over(self, period: SimDuration) -> Bandwidth {
        if period.is_zero() {
            Bandwidth::ZERO
        } else {
            Bandwidth::from_bps(self.as_bits() as f64 / period.as_secs_f64())
        }
    }
}

/// Saturates at `u64::MAX` bytes, so a byte counter fed by a huge
/// (finite) capacity stops growing instead of wrapping.
impl Add for DataSize {
    type Output = DataSize;
    fn add(self, rhs: DataSize) -> DataSize {
        DataSize(self.0.saturating_add(rhs.0))
    }
}

/// Saturates like [`Add`].
impl AddAssign for DataSize {
    fn add_assign(&mut self, rhs: DataSize) {
        *self = *self + rhs;
    }
}

impl Sum for DataSize {
    fn sum<I: Iterator<Item = DataSize>>(iter: I) -> DataSize {
        iter.fold(DataSize::ZERO, |a, b| a + b)
    }
}

impl Mul<u64> for DataSize {
    type Output = DataSize;
    fn mul(self, rhs: u64) -> DataSize {
        DataSize(self.0 * rhs)
    }
}

impl fmt::Display for DataSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.2} MB", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.1} KB", self.0 as f64 / 1e3)
        } else {
            write!(f, "{} B", self.0)
        }
    }
}

/// CPU capacity or demand in Kubernetes-style millicores
/// (1000 millicores = 1 core).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Millicores(u64);

impl Millicores {
    /// Zero CPU.
    pub const ZERO: Millicores = Millicores(0);

    /// The largest whole-core count [`from_cores`](Self::from_cores)
    /// can represent; input boundaries reject anything above it.
    pub const MAX_CORES: u64 = u64::MAX / 1000;

    /// Creates a quantity from raw millicores.
    pub const fn from_millis(m: u64) -> Self {
        Millicores(m)
    }

    /// Creates a quantity from whole cores. `cores` must not exceed
    /// [`MAX_CORES`](Self::MAX_CORES) (the product overflows).
    pub const fn from_cores(cores: u64) -> Self {
        Millicores(cores * 1000)
    }

    /// Raw millicores.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole cores as a float.
    pub fn as_cores(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Millicores) -> Millicores {
        Millicores(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction: `None` when `other` exceeds `self`.
    pub fn checked_sub(self, other: Millicores) -> Option<Millicores> {
        self.0.checked_sub(other.0).map(Millicores)
    }
}

impl Add for Millicores {
    type Output = Millicores;
    fn add(self, rhs: Millicores) -> Millicores {
        Millicores(self.0 + rhs.0)
    }
}

impl AddAssign for Millicores {
    fn add_assign(&mut self, rhs: Millicores) {
        self.0 += rhs.0;
    }
}

impl Sum for Millicores {
    fn sum<I: Iterator<Item = Millicores>>(iter: I) -> Millicores {
        iter.fold(Millicores::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for Millicores {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}m", self.0)
    }
}

/// Memory capacity or demand in mebibytes.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct MemoryMb(u64);

impl MemoryMb {
    /// Zero memory.
    pub const ZERO: MemoryMb = MemoryMb(0);

    /// Creates a quantity from mebibytes.
    pub const fn from_mb(mb: u64) -> Self {
        MemoryMb(mb)
    }

    /// Mebibytes.
    pub const fn as_mb(self) -> u64 {
        self.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: MemoryMb) -> MemoryMb {
        MemoryMb(self.0.saturating_sub(other.0))
    }

    /// Checked subtraction: `None` when `other` exceeds `self`.
    pub fn checked_sub(self, other: MemoryMb) -> Option<MemoryMb> {
        self.0.checked_sub(other.0).map(MemoryMb)
    }
}

impl Add for MemoryMb {
    type Output = MemoryMb;
    fn add(self, rhs: MemoryMb) -> MemoryMb {
        MemoryMb(self.0 + rhs.0)
    }
}

impl AddAssign for MemoryMb {
    fn add_assign(&mut self, rhs: MemoryMb) {
        self.0 += rhs.0;
    }
}

impl Sum for MemoryMb {
    fn sum<I: Iterator<Item = MemoryMb>>(iter: I) -> MemoryMb {
        iter.fold(MemoryMb::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for MemoryMb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}Mi", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bandwidth_conversions() {
        let b = Bandwidth::from_mbps(19.9);
        assert!((b.as_kbps() - 19_900.0).abs() < 1e-9);
        assert!((b.as_bps() - 19.9e6).abs() < 1e-3);
    }

    #[test]
    fn bandwidth_never_negative() {
        assert_eq!(Bandwidth::from_mbps(-5.0), Bandwidth::ZERO);
        let b = Bandwidth::from_mbps(1.0) - Bandwidth::from_mbps(2.0);
        assert!(b.is_zero());
        assert_eq!(
            Bandwidth::from_mbps(1.0).saturating_sub(Bandwidth::from_mbps(3.0)),
            Bandwidth::ZERO
        );
    }

    #[test]
    fn bandwidth_ratio_handles_zero() {
        let z = Bandwidth::ZERO;
        let b = Bandwidth::from_mbps(1.0);
        assert_eq!(z.ratio(z), 0.0);
        assert_eq!(b.ratio(z), f64::INFINITY);
        assert!((b.ratio(Bandwidth::from_mbps(2.0)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bandwidth_min_max_sum() {
        let a = Bandwidth::from_mbps(2.0);
        let b = Bandwidth::from_mbps(5.0);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        let total: Bandwidth = [a, b].into_iter().sum();
        assert!((total.as_mbps() - 7.0).abs() < 1e-12);
    }

    #[test]
    fn rate_over_roundtrip() {
        let size = DataSize::from_kilobytes(125); // 1e6 bits
        let rate = size.rate_over(SimDuration::from_secs(1));
        assert!((rate.as_mbps() - 1.0).abs() < 1e-9);
        assert_eq!(size.rate_over(SimDuration::ZERO), Bandwidth::ZERO);
    }

    #[test]
    fn millicores_accounting() {
        let cap = Millicores::from_cores(4);
        let used = Millicores::from_millis(2500);
        assert_eq!(cap.saturating_sub(used), Millicores::from_millis(1500));
        assert_eq!(used.checked_sub(cap), None);
        assert!((used.as_cores() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn memory_accounting() {
        let cap = MemoryMb::from_mb(8192);
        assert_eq!(cap.as_mb(), 8192);
        assert_eq!(cap.checked_sub(MemoryMb::from_mb(9000)), None);
        assert_eq!(
            cap.saturating_sub(MemoryMb::from_mb(192)),
            MemoryMb::from_mb(8000)
        );
    }

    #[test]
    fn displays() {
        assert_eq!(Bandwidth::from_mbps(25.0).to_string(), "25.00 Mbps");
        assert_eq!(Bandwidth::from_kbps(240.0).to_string(), "240.0 Kbps");
        assert_eq!(Bandwidth::from_bps(500.0).to_string(), "500 bps");
        assert_eq!(DataSize::from_megabytes(2).to_string(), "2.00 MB");
        assert_eq!(DataSize::from_bytes(42).to_string(), "42 B");
        assert_eq!(Millicores::from_cores(1).to_string(), "1000m");
        assert_eq!(MemoryMb::from_mb(512).to_string(), "512Mi");
    }
}
