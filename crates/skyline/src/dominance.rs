//! Dominance tests on subspaces.
//!
//! Two flavours, both under *min* conditions:
//!
//! * **Standard** skyline dominance (Section 3.1): `p` dominates `q` on `U`
//!   iff `p[i] ≤ q[i]` on every `i ∈ U` and `p[j] < q[j]` on at least one
//!   `j ∈ U`.
//! * **Extended** dominance (Definition 1): `p` ext-dominates `q` on `U`
//!   iff `p[i] < q[i]` on *every* `i ∈ U`.
//!
//! Extended dominance is strictly weaker at pruning (fewer pairs are
//! ext-dominated), which is exactly why the set of non-ext-dominated points
//! — the *extended skyline* — is a superset of every subspace skyline
//! (Observations 3–4) and is the unit of data peers ship to super-peers.

use crate::subspace::Subspace;
use serde::{Deserialize, Serialize};

/// Which dominance relation a kernel should apply.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dominance {
    /// Classic skyline dominance: `≤` everywhere, `<` somewhere.
    #[default]
    Standard,
    /// Extended dominance (paper Definition 1): `<` everywhere.
    Extended,
}

impl Dominance {
    /// Whether `p` dominates `q` on subspace `u` under this flavour.
    #[inline]
    pub fn dominates(self, p: &[f64], q: &[f64], u: Subspace) -> bool {
        match self {
            Dominance::Standard => dominates(p, q, u),
            Dominance::Extended => ext_dominates(p, q, u),
        }
    }
}

/// Standard dominance of `p` over `q` on subspace `u`.
#[inline]
pub fn dominates(p: &[f64], q: &[f64], u: Subspace) -> bool {
    let mut strict = false;
    for i in u.dims() {
        if p[i] > q[i] {
            return false;
        }
        if p[i] < q[i] {
            strict = true;
        }
    }
    strict
}

/// Extended dominance (Definition 1): `p[i] < q[i]` on every `i ∈ u`.
#[inline]
pub fn ext_dominates(p: &[f64], q: &[f64], u: Subspace) -> bool {
    u.dims().all(|i| p[i] < q[i])
}

/// Whether `p` and `q` are *incomparable* on `u` under standard dominance
/// (neither dominates the other).
#[inline]
pub fn incomparable(p: &[f64], q: &[f64], u: Subspace) -> bool {
    !dominates(p, q, u) && !dominates(q, p, u)
}

#[cfg(test)]
mod unit {
    use super::*;

    fn u2() -> Subspace {
        Subspace::full(2)
    }

    #[test]
    fn standard_requires_one_strict() {
        assert!(dominates(&[1.0, 1.0], &[1.0, 2.0], u2()));
        assert!(dominates(&[0.5, 1.0], &[1.0, 2.0], u2()));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0], u2()), "equal points do not dominate");
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0], u2()), "trade-off means incomparable");
    }

    #[test]
    fn extended_requires_all_strict() {
        assert!(ext_dominates(&[0.5, 1.0], &[1.0, 2.0], u2()));
        assert!(
            !ext_dominates(&[1.0, 1.0], &[1.0, 2.0], u2()),
            "tie on one dim blocks ext-dominance"
        );
        assert!(!ext_dominates(&[1.0, 1.0], &[1.0, 1.0], u2()));
    }

    #[test]
    fn ext_dominance_implies_standard() {
        let cases = [([0.0, 0.0], [1.0, 1.0]), ([0.1, 0.2], [0.3, 0.4]), ([2.0, 1.0], [3.0, 5.0])];
        for (p, q) in cases {
            assert!(ext_dominates(&p, &q, u2()));
            assert!(dominates(&p, &q, u2()), "ext-dominance must imply dominance");
        }
    }

    #[test]
    fn subspace_restriction_changes_verdict() {
        let p = [1.0, 9.0, 1.0];
        let q = [2.0, 1.0, 2.0];
        let xz = Subspace::from_dims(&[0, 2]);
        let y = Subspace::from_dims(&[1]);
        assert!(dominates(&p, &q, xz));
        assert!(dominates(&q, &p, y));
        assert!(incomparable(&p, &q, Subspace::full(3)));
    }

    #[test]
    fn dominance_is_irreflexive_and_antisymmetric() {
        let p = [1.0, 2.0];
        let q = [2.0, 3.0];
        assert!(!dominates(&p, &p, u2()));
        assert!(dominates(&p, &q, u2()));
        assert!(!dominates(&q, &p, u2()));
    }

    #[test]
    fn flavour_dispatch_matches_free_functions() {
        let p = [1.0, 1.0];
        let q = [1.0, 2.0];
        assert_eq!(Dominance::Standard.dominates(&p, &q, u2()), dominates(&p, &q, u2()));
        assert_eq!(Dominance::Extended.dominates(&p, &q, u2()), ext_dominates(&p, &q, u2()));
    }
}
