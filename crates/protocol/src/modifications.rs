//! The four Write-Once modifications and the named protocols they compose.
//!
//! The paper (Section 2.2) factors the five successor protocols into four
//! independent modifications of Write-Once:
//!
//! 1. **Exclusive load** — a shared bus line lets a cache load a block in
//!    state *exclusive* when no other cache holds it (Illinois, Dragon, RWB).
//! 2. **Direct cache supply** — a cache holding the block in *wback* supplies
//!    it directly, without updating memory, taking ownership on a read
//!    (Berkeley, Dragon; Illinois has a close variant).
//! 3. **Invalidate instead of write-word** — the first write to a
//!    non-exclusive block issues a 1-cycle `invalidate` rather than a
//!    write-through (all five successors).
//! 4. **Distributed write (update)** — writes to non-exclusive blocks are
//!    broadcast and all copies stay valid (RWB, Dragon).

use std::fmt;
use std::str::FromStr;

use crate::ProtocolError;

/// One of the paper's four modifications to Write-Once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Modification {
    /// Modification 1: load exclusively when the bus *shared* line stays low.
    ExclusiveLoad,
    /// Modification 2: dirty cache supplies data directly, without updating
    /// main memory; supplier keeps ownership (read) or transfers the data
    /// (read-mod).
    CacheSupply,
    /// Modification 3: invalidate on first write instead of writing the word
    /// through to memory.
    InvalidateOnWrite,
    /// Modification 4: broadcast writes keep all copies valid (update
    /// protocol).
    DistributedWrite,
}

impl Modification {
    /// All modifications in paper order.
    pub const ALL: [Modification; 4] = [
        Modification::ExclusiveLoad,
        Modification::CacheSupply,
        Modification::InvalidateOnWrite,
        Modification::DistributedWrite,
    ];

    /// The paper's number for this modification (1–4).
    pub fn number(self) -> u8 {
        match self {
            Modification::ExclusiveLoad => 1,
            Modification::CacheSupply => 2,
            Modification::InvalidateOnWrite => 3,
            Modification::DistributedWrite => 4,
        }
    }

    /// Parses the paper's number.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownModification`] for numbers outside
    /// `1..=4`.
    pub fn from_number(n: u8) -> Result<Self, ProtocolError> {
        match n {
            1 => Ok(Modification::ExclusiveLoad),
            2 => Ok(Modification::CacheSupply),
            3 => Ok(Modification::InvalidateOnWrite),
            4 => Ok(Modification::DistributedWrite),
            other => Err(ProtocolError::UnknownModification(other)),
        }
    }
}

impl fmt::Display for Modification {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mod{}", self.number())
    }
}

/// A set of modifications applied on top of Write-Once.
///
/// # Example
///
/// ```
/// use snoop_protocol::{ModSet, Modification};
///
/// let dragon_like = ModSet::new()
///     .with(Modification::ExclusiveLoad)
///     .with(Modification::DistributedWrite);
/// assert!(dragon_like.contains(Modification::ExclusiveLoad));
/// assert_eq!(dragon_like.to_string(), "WO+1+4");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct ModSet(u8);

impl ModSet {
    /// The empty set: plain Write-Once.
    pub fn new() -> Self {
        ModSet(0)
    }

    /// The set containing every modification.
    pub fn all() -> Self {
        Modification::ALL.iter().fold(ModSet::new(), |s, &m| s.with(m))
    }

    /// Returns this set with `m` added (builder style; `ModSet` is `Copy`).
    #[must_use]
    pub fn with(self, m: Modification) -> Self {
        ModSet(self.0 | 1 << m.number())
    }

    /// Returns this set with `m` removed.
    #[must_use]
    pub fn without(self, m: Modification) -> Self {
        ModSet(self.0 & !(1 << m.number()))
    }

    /// Whether `m` is in the set.
    pub fn contains(self, m: Modification) -> bool {
        self.0 & (1 << m.number()) != 0
    }

    /// Whether the set is empty (plain Write-Once).
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Number of modifications in the set.
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Iterates the contained modifications in paper order.
    pub fn iter(self) -> impl Iterator<Item = Modification> {
        Modification::ALL.into_iter().filter(move |&m| self.contains(m))
    }

    /// Builds a set from paper numbers, e.g. `ModSet::from_numbers(&[1, 4])`.
    ///
    /// # Errors
    ///
    /// Returns [`ProtocolError::UnknownModification`] on a bad number.
    pub fn from_numbers(numbers: &[u8]) -> Result<Self, ProtocolError> {
        let mut set = ModSet::new();
        for &n in numbers {
            set = set.with(Modification::from_number(n)?);
        }
        Ok(set)
    }

    /// All 16 modification subsets, Write-Once first.
    pub fn power_set() -> Vec<ModSet> {
        (0u8..16)
            .map(|bits| {
                let mut s = ModSet::new();
                for m in Modification::ALL {
                    if bits & (1 << (m.number() - 1)) != 0 {
                        s = s.with(m);
                    }
                }
                s
            })
            .collect()
    }
}

impl FromIterator<Modification> for ModSet {
    fn from_iter<T: IntoIterator<Item = Modification>>(iter: T) -> Self {
        iter.into_iter().fold(ModSet::new(), ModSet::with)
    }
}

impl fmt::Display for ModSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "WO")?;
        for m in self.iter() {
            write!(f, "+{}", m.number())?;
        }
        Ok(())
    }
}

impl FromStr for ModSet {
    type Err = ProtocolError;

    /// Parses `"WO"`, `"WO+1"`, `"WO+1+4"`, … (case-insensitive), or a named
    /// protocol (see [`NamedProtocol`]).
    fn from_str(s: &str) -> Result<Self, ProtocolError> {
        if let Some(named) = NamedProtocol::lookup(s) {
            return Ok(named.modifications());
        }
        let mut parts = s.split('+');
        match parts.next() {
            Some(head)
                if ["WO", "WRITE-ONCE", "WRITEONCE"]
                    .iter()
                    .any(|name| head.eq_ignore_ascii_case(name)) => {}
            _ => return Err(ProtocolError::UnknownProtocol(s.to_string())),
        }
        let mut set = ModSet::new();
        for part in parts {
            let n: u8 = part
                .trim()
                .parse()
                .map_err(|_| ProtocolError::UnknownProtocol(s.to_string()))?;
            set = set.with(Modification::from_number(n)?);
        }
        Ok(set)
    }
}

/// The published protocols, expressed as modification sets per the paper's
/// Section 2.2 attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NamedProtocol {
    /// Goodman 1983: the baseline.
    WriteOnce,
    /// Every write goes to memory; equivalent to modification 4 alone
    /// ("this modification alone reduces the Write-Once protocol to a
    /// write-through protocol").
    WriteThrough,
    /// Papamarcos & Patel 1984: modifications 1, 2 (memory-updating
    /// variant), 3.
    Illinois,
    /// Katz et al. 1985: modifications 2, 3.
    Berkeley,
    /// McCreight 1984: modifications 1, 2, 3, 4.
    Dragon,
    /// Rudolph & Segall 1984: modifications 1, 3, 4.
    Rwb,
    /// Frank 1984: modification 3 only (no cache-to-cache supply, no
    /// exclusive clean load).
    Synapse,
}

impl NamedProtocol {
    /// All named protocols.
    pub const ALL: [NamedProtocol; 7] = [
        NamedProtocol::WriteOnce,
        NamedProtocol::WriteThrough,
        NamedProtocol::Illinois,
        NamedProtocol::Berkeley,
        NamedProtocol::Dragon,
        NamedProtocol::Rwb,
        NamedProtocol::Synapse,
    ];

    /// The modification set this protocol corresponds to.
    pub fn modifications(self) -> ModSet {
        use Modification::*;
        match self {
            NamedProtocol::WriteOnce => ModSet::new(),
            NamedProtocol::WriteThrough => ModSet::new().with(DistributedWrite),
            NamedProtocol::Illinois => {
                ModSet::new().with(ExclusiveLoad).with(CacheSupply).with(InvalidateOnWrite)
            }
            NamedProtocol::Berkeley => ModSet::new().with(CacheSupply).with(InvalidateOnWrite),
            NamedProtocol::Dragon => ModSet::all(),
            NamedProtocol::Rwb => {
                ModSet::new().with(ExclusiveLoad).with(InvalidateOnWrite).with(DistributedWrite)
            }
            NamedProtocol::Synapse => ModSet::new().with(InvalidateOnWrite),
        }
    }
}

impl fmt::Display for NamedProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            NamedProtocol::WriteOnce => "write-once",
            NamedProtocol::WriteThrough => "write-through",
            NamedProtocol::Illinois => "illinois",
            NamedProtocol::Berkeley => "berkeley",
            NamedProtocol::Dragon => "dragon",
            NamedProtocol::Rwb => "rwb",
            NamedProtocol::Synapse => "synapse",
        })
    }
}

impl NamedProtocol {
    /// The protocol a name spells, ignoring ASCII case.
    fn lookup(s: &str) -> Option<Self> {
        const NAMES: [(&str, NamedProtocol); 11] = [
            ("write-once", NamedProtocol::WriteOnce),
            ("writeonce", NamedProtocol::WriteOnce),
            ("goodman", NamedProtocol::WriteOnce),
            ("write-through", NamedProtocol::WriteThrough),
            ("writethrough", NamedProtocol::WriteThrough),
            ("illinois", NamedProtocol::Illinois),
            ("mesi", NamedProtocol::Illinois),
            ("berkeley", NamedProtocol::Berkeley),
            ("dragon", NamedProtocol::Dragon),
            ("rwb", NamedProtocol::Rwb),
            ("synapse", NamedProtocol::Synapse),
        ];
        NAMES.iter().find(|(name, _)| s.eq_ignore_ascii_case(name)).map(|&(_, named)| named)
    }
}

impl FromStr for NamedProtocol {
    type Err = ProtocolError;

    fn from_str(s: &str) -> Result<Self, ProtocolError> {
        NamedProtocol::lookup(s).ok_or_else(|| ProtocolError::UnknownProtocol(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modification_numbers_round_trip() {
        for m in Modification::ALL {
            assert_eq!(Modification::from_number(m.number()).unwrap(), m);
        }
        assert!(Modification::from_number(0).is_err());
        assert!(Modification::from_number(5).is_err());
    }

    #[test]
    fn set_operations() {
        let s = ModSet::new().with(Modification::ExclusiveLoad);
        assert!(s.contains(Modification::ExclusiveLoad));
        assert!(!s.contains(Modification::CacheSupply));
        assert_eq!(s.len(), 1);
        assert!(s.without(Modification::ExclusiveLoad).is_empty());
        assert_eq!(ModSet::all().len(), 4);
    }

    #[test]
    fn display_format() {
        assert_eq!(ModSet::new().to_string(), "WO");
        assert_eq!(ModSet::from_numbers(&[1, 4]).unwrap().to_string(), "WO+1+4");
        assert_eq!(ModSet::all().to_string(), "WO+1+2+3+4");
    }

    #[test]
    fn parse_mod_sets() {
        assert_eq!("WO".parse::<ModSet>().unwrap(), ModSet::new());
        assert_eq!("wo+1+4".parse::<ModSet>().unwrap(), ModSet::from_numbers(&[1, 4]).unwrap());
        assert!("WO+7".parse::<ModSet>().is_err());
        assert!("nonsense".parse::<ModSet>().is_err());
    }

    /// A reference parser that matches lower- and upper-cased copies of
    /// the whole name.
    fn parse_by_copying(s: &str) -> Result<ModSet, ProtocolError> {
        let named = match s.to_ascii_lowercase().as_str() {
            "write-once" | "writeonce" | "goodman" => Some(NamedProtocol::WriteOnce),
            "write-through" | "writethrough" => Some(NamedProtocol::WriteThrough),
            "illinois" | "mesi" => Some(NamedProtocol::Illinois),
            "berkeley" => Some(NamedProtocol::Berkeley),
            "dragon" => Some(NamedProtocol::Dragon),
            "rwb" => Some(NamedProtocol::Rwb),
            "synapse" => Some(NamedProtocol::Synapse),
            _ => None,
        };
        if let Some(named) = named {
            return Ok(named.modifications());
        }
        let upper = s.to_ascii_uppercase();
        let mut parts = upper.split('+');
        match parts.next() {
            Some("WO") | Some("WRITE-ONCE") | Some("WRITEONCE") => {}
            _ => return Err(ProtocolError::UnknownProtocol(s.to_string())),
        }
        let mut set = ModSet::new();
        for part in parts {
            let n: u8 = part
                .trim()
                .parse()
                .map_err(|_| ProtocolError::UnknownProtocol(s.to_string()))?;
            set = set.with(Modification::from_number(n)?);
        }
        Ok(set)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(2048))]

        #[test]
        fn parsing_matches_the_copying_parser(
            parts in proptest::collection::vec(0usize..22, 0..7),
        ) {
            const PIECES: [&str; 22] = [
                "WO", "wo", "Wo", "write-once", "WriteOnce", "+", "+", "1", "2", "3", "4", "9",
                "01", " ", "\u{a0}", "dragon", "MESI", "Goodman", "rwB", "é", "x", "-",
            ];
            let text: String = parts.iter().map(|&i| PIECES[i]).collect();
            proptest::prop_assert_eq!(text.parse::<ModSet>(), parse_by_copying(&text), "{:?}", text);
            let named = text.parse::<NamedProtocol>().map(NamedProtocol::modifications);
            if named.is_ok() {
                proptest::prop_assert_eq!(named, parse_by_copying(&text));
            }
        }
    }

    #[test]
    fn display_is_canonical_regardless_of_spelling_or_insertion_order() {
        // The engine's content-addressed cache keys hash the `Display`
        // form, so every spelling of the same set MUST render identically —
        // "WO+3+1" printing differently from "WO+1+3" would poison the
        // cache with duplicate entries for one protocol.
        assert_eq!("WO+3+1".parse::<ModSet>().unwrap().to_string(), "WO+1+3");
        assert_eq!("wo+4+2+1".parse::<ModSet>().unwrap().to_string(), "WO+1+2+4");
        let forward: ModSet =
            [Modification::ExclusiveLoad, Modification::InvalidateOnWrite].into_iter().collect();
        let reverse: ModSet =
            [Modification::InvalidateOnWrite, Modification::ExclusiveLoad].into_iter().collect();
        assert_eq!(forward, reverse);
        assert_eq!(forward.to_string(), reverse.to_string());
        // Every member of the power set round-trips through its canonical
        // rendering to the same set and the same rendering.
        for set in ModSet::power_set() {
            let rendered = set.to_string();
            let reparsed: ModSet = rendered.parse().unwrap();
            assert_eq!(reparsed, set);
            assert_eq!(reparsed.to_string(), rendered);
            // Canonical form lists modification numbers in ascending order.
            let numbers: Vec<u8> = set.iter().map(|m| m.number()).collect();
            let mut sorted = numbers.clone();
            sorted.sort_unstable();
            assert_eq!(numbers, sorted, "{rendered}");
        }
    }

    #[test]
    fn parse_named_protocols_as_mod_sets() {
        assert_eq!("dragon".parse::<ModSet>().unwrap(), ModSet::all());
        assert_eq!(
            "berkeley".parse::<ModSet>().unwrap(),
            ModSet::from_numbers(&[2, 3]).unwrap()
        );
    }

    #[test]
    fn named_protocol_attributions_match_paper() {
        use Modification::*;
        // "Modification 1 is included in the Illinois, Dragon, and RWB protocols."
        for p in [NamedProtocol::Illinois, NamedProtocol::Dragon, NamedProtocol::Rwb] {
            assert!(p.modifications().contains(ExclusiveLoad), "{p}");
        }
        assert!(!NamedProtocol::Berkeley.modifications().contains(ExclusiveLoad));
        // "Modification 2 is included in the Berkeley and Dragon protocols"
        // (and the Illinois variant).
        for p in [NamedProtocol::Berkeley, NamedProtocol::Dragon, NamedProtocol::Illinois] {
            assert!(p.modifications().contains(CacheSupply), "{p}");
        }
        // "Modification 3 is included in all five protocols proposed as
        // improvements to Write-Once."
        for p in [
            NamedProtocol::Illinois,
            NamedProtocol::Berkeley,
            NamedProtocol::Dragon,
            NamedProtocol::Rwb,
            NamedProtocol::Synapse,
        ] {
            assert!(p.modifications().contains(InvalidateOnWrite), "{p}");
        }
        // "Modification 4 is included in the RWB and Dragon protocols."
        for p in [NamedProtocol::Rwb, NamedProtocol::Dragon] {
            assert!(p.modifications().contains(DistributedWrite), "{p}");
        }
    }

    #[test]
    fn power_set_has_16_unique_members() {
        let mut sets = ModSet::power_set();
        assert_eq!(sets[0], ModSet::new());
        sets.sort();
        sets.dedup();
        assert_eq!(sets.len(), 16);
    }

    #[test]
    fn from_iterator() {
        let s: ModSet = [Modification::ExclusiveLoad, Modification::DistributedWrite]
            .into_iter()
            .collect();
        assert_eq!(s, ModSet::from_numbers(&[1, 4]).unwrap());
    }

    #[test]
    fn named_round_trip_display_parse() {
        for p in NamedProtocol::ALL {
            assert_eq!(p.to_string().parse::<NamedProtocol>().unwrap(), p);
        }
    }
}
