//! The Pareto dominance kernel and the incremental frontier.
//!
//! Three objectives, all minimized: energy per operation, cycles per
//! operation, and the silicon-area proxy. Dominance is the *strict
//! partial order* of [`dominates`]: weak componentwise `≤` plus a
//! tie-break on the point's lattice index for objective-identical
//! points. The tie-break matters: without it, two points with equal
//! objective vectors would both survive (or neither, depending on
//! kernel convention) and the frontier would depend on evaluation
//! order. With it, the frontier is the set of maximal elements of a
//! finite strict partial order — a pure function of the evaluated set,
//! independent of insertion order or thread schedule.

/// One point's objective vector. All three are minimized.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Objectives {
    /// Simulated cycles for the workload.
    pub cycles: u64,
    /// Total energy for the workload, µJ.
    pub energy_uj: f64,
    /// Silicon-area proxy, kGE (`ule_energy::area`).
    pub area_kge: f64,
}

impl Objectives {
    /// Weak componentwise dominance: no objective is worse.
    pub fn weakly_le(&self, other: &Objectives) -> bool {
        self.cycles <= other.cycles
            && self.energy_uj <= other.energy_uj
            && self.area_kge <= other.area_kge
    }
}

/// Strict dominance with lattice-index tie-breaking: `a` (at lattice
/// index `ida`) dominates `b` (at `idb`) iff `a` is weakly no worse on
/// every objective and either strictly better somewhere, or
/// objective-identical with the smaller index. Irreflexive and
/// transitive, so "not dominated by anything" is well-defined and
/// insertion-order independent.
pub fn dominates(a: &Objectives, ida: usize, b: &Objectives, idb: usize) -> bool {
    if !a.weakly_le(b) {
        return false;
    }
    a.cycles < b.cycles || a.energy_uj < b.energy_uj || a.area_kge < b.area_kge || ida < idb
}

/// A frontier point: lattice index plus its objectives.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FrontPoint {
    /// The point's index in the canonical lattice enumeration.
    pub id: usize,
    /// Its objective vector.
    pub objectives: Objectives,
}

/// The incremental Pareto frontier: the maximal elements (under
/// [`dominates`]) of everything inserted so far, kept sorted by
/// lattice index.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ParetoFront {
    points: Vec<FrontPoint>,
}

impl ParetoFront {
    /// An empty frontier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Offers one evaluated point. Returns `true` if it joined the
    /// frontier (possibly evicting now-dominated members), `false` if
    /// an existing member dominates it.
    pub fn insert(&mut self, id: usize, objectives: Objectives) -> bool {
        if self
            .points
            .iter()
            .any(|p| dominates(&p.objectives, p.id, &objectives, id))
        {
            return false;
        }
        self.points
            .retain(|p| !dominates(&objectives, id, &p.objectives, p.id));
        let pos = self.points.partition_point(|p| p.id < id);
        self.points.insert(pos, FrontPoint { id, objectives });
        true
    }

    /// The frontier, sorted by lattice index.
    pub fn points(&self) -> &[FrontPoint] {
        &self.points
    }

    /// Number of frontier points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frontier is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether the point with this lattice index is on the frontier.
    pub fn contains(&self, id: usize) -> bool {
        self.points.binary_search_by_key(&id, |p| p.id).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(cycles: u64, energy_uj: f64, area_kge: f64) -> Objectives {
        Objectives {
            cycles,
            energy_uj,
            area_kge,
        }
    }

    #[test]
    fn dominance_is_irreflexive_and_directional() {
        let a = obj(100, 1.0, 50.0);
        assert!(!dominates(&a, 0, &a, 0));
        let worse = obj(100, 2.0, 50.0);
        assert!(dominates(&a, 1, &worse, 0));
        assert!(!dominates(&worse, 0, &a, 1));
        // Incomparable: each better somewhere.
        let tradeoff = obj(50, 2.0, 50.0);
        assert!(!dominates(&a, 0, &tradeoff, 1));
        assert!(!dominates(&tradeoff, 1, &a, 0));
    }

    #[test]
    fn equal_objectives_break_ties_by_lattice_index() {
        let a = obj(100, 1.0, 50.0);
        assert!(dominates(&a, 3, &a, 7));
        assert!(!dominates(&a, 7, &a, 3));
        let mut f = ParetoFront::new();
        assert!(f.insert(7, a));
        assert!(f.insert(3, a));
        assert_eq!(f.len(), 1);
        assert!(f.contains(3));
    }

    #[test]
    fn frontier_keeps_tradeoffs_and_evicts_dominated() {
        let mut f = ParetoFront::new();
        assert!(f.insert(0, obj(100, 2.0, 50.0)));
        assert!(f.insert(1, obj(200, 1.0, 50.0))); // energy/cycles trade
        assert!(!f.insert(2, obj(300, 3.0, 60.0))); // dominated by both
        assert_eq!(f.len(), 2);
        // A sweep point evicts both.
        assert!(f.insert(4, obj(90, 0.9, 49.0)));
        assert_eq!(
            f.points(),
            &[FrontPoint {
                id: 4,
                objectives: obj(90, 0.9, 49.0)
            }]
        );
    }
}
