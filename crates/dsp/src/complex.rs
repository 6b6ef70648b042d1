//! A minimal `f64` complex-number type.
//!
//! The CoS reproduction implements its entire DSP stack from scratch, so the
//! complex type is defined here rather than pulled from an external crate.
//! Only the operations the OFDM/FEC/channel code actually needs are provided.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// # Examples
///
/// ```
/// use cos_dsp::Complex;
///
/// let a = Complex::new(3.0, 4.0);
/// assert_eq!(a.norm(), 5.0);
/// assert_eq!(a * a.conj(), Complex::new(25.0, 0.0));
/// ```
///
/// The layout is `repr(C)` `{ re, im }`, so a `[Complex; N]` is `2N`
/// interleaved `f64` values; the lane kernels load it as such.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// The additive identity `0 + 0i`.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity `1 + 0i`.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit `0 + 1i`.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from real and imaginary parts.
    #[inline]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex { re, im }
    }

    /// Creates a complex number on the unit circle, `e^{i·theta}`.
    ///
    /// ```
    /// use cos_dsp::Complex;
    /// let w = Complex::from_angle(std::f64::consts::PI);
    /// assert!((w - Complex::new(-1.0, 0.0)).norm() < 1e-15);
    /// ```
    #[inline]
    pub fn from_angle(theta: f64) -> Self {
        Complex::new(theta.cos(), theta.sin())
    }

    /// Creates a complex number from polar coordinates `r·e^{i·theta}`.
    #[inline]
    pub fn from_polar(r: f64, theta: f64) -> Self {
        Complex::new(r * theta.cos(), r * theta.sin())
    }

    /// The complex conjugate.
    #[inline]
    pub fn conj(self) -> Self {
        Complex::new(self.re, -self.im)
    }

    /// The squared magnitude `re² + im²`.
    ///
    /// This is the *energy* of the sample; preferred over [`Complex::norm`]
    /// in hot paths because it avoids the square root.
    #[inline]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `sqrt(re² + im²)`.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// The argument (phase angle) in radians, in `(-π, π]`.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline]
    pub fn scale(self, s: f64) -> Self {
        Complex::new(self.re * s, self.im * s)
    }

    /// The multiplicative inverse `1/self`.
    ///
    /// Returns [`Complex::ZERO`] components of ±inf/NaN if `self` is zero,
    /// mirroring `f64` division semantics.
    #[inline]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        Complex::new(self.re / d, -self.im / d)
    }

    /// Returns `true` if both parts are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    #[inline]
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    #[inline]
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    #[inline]
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    #[inline]
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    #[inline]
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Mul<Complex> for f64 {
    type Output = Complex;
    #[inline]
    fn mul(self, rhs: Complex) -> Complex {
        rhs.scale(self)
    }
}

impl Div for Complex {
    type Output = Complex;
    #[inline]
    #[allow(clippy::suspicious_arithmetic_impl)] // z/w = z·w⁻¹ by definition
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    #[inline]
    fn div(self, rhs: f64) -> Complex {
        Complex::new(self.re / rhs, self.im / rhs)
    }
}

impl Neg for Complex {
    type Output = Complex;
    #[inline]
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, x| acc + x)
    }
}

impl From<f64> for Complex {
    /// Embeds a real number as `re + 0i`.
    #[inline]
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl fmt::Display for Complex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).norm() < EPS
    }

    #[test]
    fn constructors_and_constants() {
        assert_eq!(Complex::ZERO, Complex::new(0.0, 0.0));
        assert_eq!(Complex::ONE, Complex::new(1.0, 0.0));
        assert_eq!(Complex::I, Complex::new(0.0, 1.0));
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Complex::new(1.5, -2.0);
        let b = Complex::new(-0.25, 4.0);
        assert!(close(a + b - b, a));
        let mut c = a;
        c += b;
        c -= b;
        assert!(close(c, a));
    }

    #[test]
    fn multiplication_matches_expansion() {
        let a = Complex::new(2.0, 3.0);
        let b = Complex::new(-1.0, 4.0);
        // (2+3i)(-1+4i) = -2+8i-3i+12i² = -14 + 5i
        assert!(close(a * b, Complex::new(-14.0, 5.0)));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert!(close(Complex::I * Complex::I, -Complex::ONE));
    }

    #[test]
    fn division_inverts_multiplication() {
        let a = Complex::new(0.7, -1.3);
        let b = Complex::new(2.2, 0.4);
        assert!(close(a * b / b, a));
    }

    #[test]
    fn inv_of_unit_circle_is_conj() {
        let w = Complex::from_angle(1.234);
        assert!(close(w.inv(), w.conj()));
    }

    #[test]
    fn norm_and_energy() {
        let a = Complex::new(3.0, 4.0);
        assert_eq!(a.norm_sqr(), 25.0);
        assert_eq!(a.norm(), 5.0);
    }

    #[test]
    fn arg_quadrants() {
        assert!((Complex::new(1.0, 0.0).arg() - 0.0).abs() < EPS);
        assert!((Complex::new(0.0, 1.0).arg() - std::f64::consts::FRAC_PI_2).abs() < EPS);
        assert!((Complex::new(-1.0, 0.0).arg() - std::f64::consts::PI).abs() < EPS);
        assert!((Complex::new(0.0, -1.0).arg() + std::f64::consts::FRAC_PI_2).abs() < EPS);
    }

    #[test]
    fn from_polar_matches_parts() {
        let c = Complex::from_polar(2.0, std::f64::consts::FRAC_PI_4);
        assert!((c.re - 2.0f64.sqrt()).abs() < EPS);
        assert!((c.im - 2.0f64.sqrt()).abs() < EPS);
    }

    #[test]
    fn scalar_ops_commute() {
        let a = Complex::new(1.0, -2.0);
        assert!(close(a * 3.0, 3.0 * a));
        assert!(close(a * 3.0 / 3.0, a));
    }

    #[test]
    fn sum_of_iterator() {
        let v = vec![Complex::ONE, Complex::I, Complex::new(2.0, -3.0)];
        let s: Complex = v.into_iter().sum();
        assert!(close(s, Complex::new(3.0, -2.0)));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(Complex::new(1.0, 2.0).to_string(), "1+2i");
        assert_eq!(Complex::new(1.0, -2.0).to_string(), "1-2i");
    }

    #[test]
    fn conj_is_involution() {
        let a = Complex::new(0.3, 9.1);
        assert_eq!(a.conj().conj(), a);
    }

    #[test]
    fn finite_detection() {
        assert!(Complex::new(1.0, 2.0).is_finite());
        assert!(!Complex::new(f64::INFINITY, 0.0).is_finite());
        assert!(!Complex::new(0.0, f64::NAN).is_finite());
    }
}
