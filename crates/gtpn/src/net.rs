//! Net structure: places, transitions, and the builder.

use crate::GtpnError;

/// Identifier of a place, returned by [`NetBuilder::place`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub(crate) usize);

impl PlaceId {
    /// Index into the marking vector.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Identifier of a transition, returned by [`NetBuilder::immediate`] /
/// [`NetBuilder::timed`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TransitionId(pub(crate) usize);

impl TransitionId {
    /// Index into the net's transition list.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Firing semantics of a transition.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Firing {
    /// Fires in zero time when enabled. Conflicts among simultaneously
    /// enabled immediate transitions are resolved probabilistically by
    /// weight within the highest enabled priority class.
    Immediate,
    /// Holds its input tokens for exactly this many time steps
    /// (deterministic duration, the GTPN feature the paper highlights:
    /// "we are able to consider deterministic bus access times").
    Deterministic(u32),
    /// Memoryless completion: an active firing finishes at each step with
    /// this probability (discrete-time analogue of an exponential duration;
    /// mean duration `1/p`).
    Geometric(f64),
}

/// One place.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Place {
    /// Human-readable name (used in error messages and reports).
    pub name: String,
    /// Tokens in the initial marking.
    pub initial_tokens: u32,
}

/// One transition.
#[derive(Debug, Clone, PartialEq)]
pub struct Transition {
    /// Human-readable name.
    pub name: String,
    /// Firing semantics.
    pub firing: Firing,
    /// Input arcs as `(place, multiplicity)`.
    pub inputs: Vec<(PlaceId, u32)>,
    /// Output arcs as `(place, multiplicity)`.
    pub outputs: Vec<(PlaceId, u32)>,
    /// Conflict-resolution weight (immediate transitions) — relative
    /// probability among simultaneously enabled transitions of the same
    /// priority.
    pub weight: f64,
    /// Priority class; higher fires first. Only meaningful for immediate
    /// transitions.
    pub priority: u32,
    /// Marking-dependent weight: when set, the race weight is `weight`
    /// times the tokens in this place (always one of the inputs). A folded
    /// net uses it to weigh a class of identical processors by how many of
    /// them are queued in it, as unfolded per-processor copies would.
    pub weight_tokens: Option<PlaceId>,
}

impl Transition {
    /// Whether the transition is enabled in `marking`.
    pub fn enabled(&self, marking: &[u32]) -> bool {
        self.inputs.iter().all(|&(p, k)| marking[p.0] >= k)
    }

    /// The transition's weight in a race taken in `marking`.
    pub fn race_weight(&self, marking: &[u32]) -> f64 {
        match self.weight_tokens {
            Some(p) => self.weight * f64::from(marking[p.0]),
            None => self.weight,
        }
    }
}

/// A validated, immutable net.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    places: Vec<Place>,
    transitions: Vec<Transition>,
}

impl Net {
    /// The places.
    pub fn places(&self) -> &[Place] {
        &self.places
    }

    /// The transitions.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }

    /// The initial marking vector.
    pub fn initial_marking(&self) -> Vec<u32> {
        self.places.iter().map(|p| p.initial_tokens).collect()
    }

    /// Looks a place up by name.
    pub fn place_by_name(&self, name: &str) -> Option<PlaceId> {
        self.places.iter().position(|p| p.name == name).map(PlaceId)
    }

    /// Looks a transition up by name.
    pub fn transition_by_name(&self, name: &str) -> Option<TransitionId> {
        self.transitions.iter().position(|t| t.name == name).map(TransitionId)
    }
}

/// Builder for [`Net`].
///
/// # Example
///
/// ```
/// use snoop_gtpn::net::{Firing, NetBuilder};
///
/// # fn main() -> Result<(), snoop_gtpn::GtpnError> {
/// let mut b = NetBuilder::new();
/// let idle = b.place("idle", 1);
/// let busy = b.place("busy", 0);
/// b.timed("work", Firing::Deterministic(3), &[(idle, 1)], &[(busy, 1)]);
/// b.timed("rest", Firing::Geometric(0.5), &[(busy, 1)], &[(idle, 1)]);
/// let net = b.build()?;
/// assert_eq!(net.places().len(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct NetBuilder {
    places: Vec<Place>,
    transitions: Vec<Transition>,
}

impl NetBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        NetBuilder::default()
    }

    /// Adds a place with an initial token count.
    pub fn place(&mut self, name: &str, initial_tokens: u32) -> PlaceId {
        self.places.push(Place { name: name.to_string(), initial_tokens });
        PlaceId(self.places.len() - 1)
    }

    /// Adds an immediate transition with weight 1 and priority 0.
    pub fn immediate(
        &mut self,
        name: &str,
        inputs: &[(PlaceId, u32)],
        outputs: &[(PlaceId, u32)],
    ) -> TransitionId {
        self.immediate_weighted(name, 1.0, 0, inputs, outputs)
    }

    /// Adds an immediate transition with an explicit weight and priority.
    pub fn immediate_weighted(
        &mut self,
        name: &str,
        weight: f64,
        priority: u32,
        inputs: &[(PlaceId, u32)],
        outputs: &[(PlaceId, u32)],
    ) -> TransitionId {
        self.transitions.push(Transition {
            name: name.to_string(),
            firing: Firing::Immediate,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            weight,
            priority,
            weight_tokens: None,
        });
        TransitionId(self.transitions.len() - 1)
    }

    /// Adds a timed transition with weight 1.
    pub fn timed(
        &mut self,
        name: &str,
        firing: Firing,
        inputs: &[(PlaceId, u32)],
        outputs: &[(PlaceId, u32)],
    ) -> TransitionId {
        self.timed_weighted(name, 1.0, firing, inputs, outputs)
    }

    /// Adds a timed transition with an explicit start-race weight (used
    /// when conflicting timed transitions encode a probabilistic choice,
    /// e.g. the remote-read service variants of the coherence model).
    pub fn timed_weighted(
        &mut self,
        name: &str,
        weight: f64,
        firing: Firing,
        inputs: &[(PlaceId, u32)],
        outputs: &[(PlaceId, u32)],
    ) -> TransitionId {
        self.transitions.push(Transition {
            name: name.to_string(),
            firing,
            inputs: inputs.to_vec(),
            outputs: outputs.to_vec(),
            weight,
            priority: 0,
            weight_tokens: None,
        });
        TransitionId(self.transitions.len() - 1)
    }

    /// Scales `transition`'s race weight by the tokens in `place`, which
    /// must be one of its input places (see [`Transition::weight_tokens`]).
    pub fn weight_by_tokens(&mut self, transition: TransitionId, place: PlaceId) {
        self.transitions[transition.0].weight_tokens = Some(place);
    }

    /// Validates and freezes the net.
    ///
    /// # Errors
    ///
    /// Returns [`GtpnError::EmptyNet`] for a net without places or
    /// transitions, [`GtpnError::UnknownPlace`] for dangling arcs, and
    /// [`GtpnError::InvalidTransition`] for bad parameters (zero
    /// deterministic duration, geometric probability outside `(0, 1]`,
    /// non-positive weight, a timed transition labeled `Immediate`
    /// inconsistently, a token weight read from a place that is not an
    /// input — it could be empty while the transition is enabled — or a
    /// transition with no input arcs, which would fire unboundedly).
    pub fn build(self) -> Result<Net, GtpnError> {
        if self.places.is_empty() || self.transitions.is_empty() {
            return Err(GtpnError::EmptyNet);
        }
        let n_places = self.places.len();
        for t in &self.transitions {
            for &(p, _) in t.inputs.iter().chain(t.outputs.iter()) {
                if p.0 >= n_places {
                    return Err(GtpnError::UnknownPlace { transition: t.name.clone() });
                }
            }
            if t.inputs.is_empty() {
                return Err(GtpnError::InvalidTransition {
                    transition: t.name.clone(),
                    reason: "no input arcs (would fire unboundedly)".into(),
                });
            }
            if t.weight <= 0.0 || !t.weight.is_finite() {
                return Err(GtpnError::InvalidTransition {
                    transition: t.name.clone(),
                    reason: format!("weight {} must be positive", t.weight),
                });
            }
            if let Some(p) = t.weight_tokens {
                if !t.inputs.iter().any(|&(q, k)| q == p && k > 0) {
                    return Err(GtpnError::InvalidTransition {
                        transition: t.name.clone(),
                        reason: "token weight must be read from an input place".into(),
                    });
                }
            }
            match t.firing {
                Firing::Deterministic(0) => {
                    return Err(GtpnError::InvalidTransition {
                        transition: t.name.clone(),
                        reason: "deterministic duration must be at least 1 (use an \
                                 immediate transition for zero time)"
                            .into(),
                    });
                }
                Firing::Geometric(p) if !(p > 0.0 && p <= 1.0) => {
                    return Err(GtpnError::InvalidTransition {
                        transition: t.name.clone(),
                        reason: format!("geometric probability {p} must lie in (0, 1]"),
                    });
                }
                _ => {}
            }
        }
        Ok(Net { places: self.places, transitions: self.transitions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_net() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        let c = b.place("b", 0);
        let t = b.timed("t", Firing::Deterministic(2), &[(a, 1)], &[(c, 1)]);
        let net = b.build().unwrap();
        assert_eq!(net.initial_marking(), vec![1, 0]);
        assert_eq!(net.place_by_name("b"), Some(c));
        assert_eq!(net.transition_by_name("t"), Some(t));
        assert!(net.transitions()[0].enabled(&[1, 0]));
        assert!(!net.transitions()[0].enabled(&[0, 1]));
    }

    #[test]
    fn empty_net_rejected() {
        assert_eq!(NetBuilder::new().build().unwrap_err(), GtpnError::EmptyNet);
        let mut b = NetBuilder::new();
        b.place("lonely", 1);
        assert_eq!(b.build().unwrap_err(), GtpnError::EmptyNet);
    }

    #[test]
    fn dangling_place_rejected() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        b.timed("t", Firing::Deterministic(1), &[(a, 1)], &[(PlaceId(7), 1)]);
        assert!(matches!(b.build(), Err(GtpnError::UnknownPlace { .. })));
    }

    #[test]
    fn zero_duration_rejected() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        b.timed("t", Firing::Deterministic(0), &[(a, 1)], &[]);
        assert!(matches!(b.build(), Err(GtpnError::InvalidTransition { .. })));
    }

    #[test]
    fn bad_geometric_rejected() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        b.timed("t", Firing::Geometric(1.5), &[(a, 1)], &[]);
        assert!(matches!(b.build(), Err(GtpnError::InvalidTransition { .. })));
    }

    #[test]
    fn inputless_transition_rejected() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        b.timed("t", Firing::Deterministic(1), &[], &[(a, 1)]);
        assert!(matches!(b.build(), Err(GtpnError::InvalidTransition { .. })));
    }

    #[test]
    fn bad_weight_rejected() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        b.immediate_weighted("t", 0.0, 0, &[(a, 1)], &[]);
        assert!(matches!(b.build(), Err(GtpnError::InvalidTransition { .. })));
    }

    #[test]
    fn token_weight_scales_with_the_marking() {
        let mut b = NetBuilder::new();
        let queue = b.place("queue", 3);
        let t = b.timed_weighted("t", 0.5, Firing::Deterministic(1), &[(queue, 1)], &[]);
        b.weight_by_tokens(t, queue);
        let net = b.build().unwrap();
        assert_eq!(net.transitions()[0].race_weight(&[3]), 1.5);
        assert_eq!(net.transitions()[0].race_weight(&[1]), 0.5);
    }

    #[test]
    fn token_weight_from_a_non_input_place_rejected() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        let other = b.place("other", 0);
        let t = b.timed("t", Firing::Deterministic(1), &[(a, 1)], &[]);
        b.weight_by_tokens(t, other);
        assert!(matches!(b.build(), Err(GtpnError::InvalidTransition { .. })));
    }

    #[test]
    fn multiplicity_enabling() {
        let mut b = NetBuilder::new();
        let a = b.place("a", 1);
        b.timed("t", Firing::Deterministic(1), &[(a, 2)], &[]);
        let net = b.build().unwrap();
        assert!(!net.transitions()[0].enabled(&[1]));
        assert!(net.transitions()[0].enabled(&[2]));
    }
}
