//! The motif catalog of paper Fig. 3: the ten walk-shaped motifs used
//! throughout the experimental evaluation.
//!
//! Fig. 3 provides only drawings; the exact walks of the M(4,4) and M(5,5)
//! variants are fixed here as documented in `DESIGN.md`:
//!
//! | name | walk | shape |
//! |---|---|---|
//! | M(3,2)  | `0-1-2`       | 3-chain |
//! | M(3,3)  | `0-1-2-0`     | triangle (cyclic transactions) |
//! | M(4,3)  | `0-1-2-3`     | 4-chain |
//! | M(4,4)A | `0-1-2-3-0`   | 4-cycle |
//! | M(4,4)B | `0-1-2-0-3`   | triangle + out-edge |
//! | M(4,4)C | `0-1-2-3-1`   | chain + back-edge to the 2nd node |
//! | M(5,4)  | `0-1-2-3-4`   | 5-chain |
//! | M(5,5)A | `0-1-2-3-4-0` | 5-cycle |
//! | M(5,5)B | `0-1-2-3-0-4` | 4-cycle + out-edge |
//! | M(5,5)C | `0-1-2-3-4-2` | chain + back-edge to the 3rd node |

use crate::error::MotifError;
use crate::motif::{Motif, MotifNode, SpanningPath};

/// Names and walks of the ten catalog motifs, in the order of Fig. 3's
/// evaluation charts.
pub const CATALOG: [(&str, &[MotifNode]); 10] = [
    ("M(3,2)", &[0, 1, 2]),
    ("M(3,3)", &[0, 1, 2, 0]),
    ("M(4,3)", &[0, 1, 2, 3]),
    ("M(4,4)A", &[0, 1, 2, 3, 0]),
    ("M(4,4)B", &[0, 1, 2, 0, 3]),
    ("M(4,4)C", &[0, 1, 2, 3, 1]),
    ("M(5,4)", &[0, 1, 2, 3, 4]),
    ("M(5,5)A", &[0, 1, 2, 3, 4, 0]),
    ("M(5,5)B", &[0, 1, 2, 3, 0, 4]),
    ("M(5,5)C", &[0, 1, 2, 3, 4, 2]),
];

/// Returns all ten catalog motifs with the given constraints.
pub fn all_motifs(delta: i64, phi: f64) -> Vec<Motif> {
    CATALOG
        .iter()
        .map(|(name, walk)| {
            Motif::from_walk(walk, delta, phi).expect("catalog walks are valid").with_name(*name)
        })
        .collect()
}

/// Looks a catalog motif up by name, e.g. `"M(4,4)B"`. Matching is
/// case-insensitive and ignores whitespace; the suffix letter of the
/// single-variant motifs may be omitted.
pub fn by_name(name: &str, delta: i64, phi: f64) -> Result<Motif, MotifError> {
    let needle: String =
        name.chars().filter(|c| !c.is_whitespace()).collect::<String>().to_uppercase();
    for (n, walk) in CATALOG {
        if n.to_uppercase() == needle {
            return Ok(Motif::from_walk(walk, delta, phi)?.with_name(n));
        }
    }
    Err(MotifError::UnknownMotifName(name.to_string()))
}

/// Parses a motif from either a catalog name or an explicit walk such as
/// `"0-1-2-0"` (dash- or space-separated vertex labels). A spec that
/// names a catalog motif reports [`by_name`]'s own error (a bad `δ` or
/// `ϕ`), not an unknown name.
pub fn parse_motif(spec: &str, delta: i64, phi: f64) -> Result<Motif, MotifError> {
    match by_name(spec, delta, phi) {
        Err(MotifError::UnknownMotifName(_)) => {}
        named => return named,
    }
    let labels: Result<Vec<MotifNode>, _> = spec
        .split(|c: char| c == '-' || c.is_whitespace())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<MotifNode>())
        .collect();
    match labels {
        Ok(walk) if walk.len() >= 2 => Motif::new(SpanningPath::new(walk)?, delta, phi),
        _ => Err(MotifError::UnknownMotifName(spec.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_walks_are_valid_and_sized_as_named() {
        for (name, walk) in CATALOG {
            let p = SpanningPath::new(walk.to_vec()).unwrap();
            // Parse "M(n,m)" out of the name.
            let inner = &name[2..name.find(')').unwrap()];
            let (n, m) = inner.split_once(',').unwrap();
            assert_eq!(p.num_nodes(), n.parse::<usize>().unwrap(), "{name}");
            assert_eq!(p.num_edges(), m.parse::<usize>().unwrap(), "{name}");
        }
    }

    #[test]
    fn all_motifs_returns_ten_named_motifs() {
        let ms = all_motifs(600, 5.0);
        assert_eq!(ms.len(), 10);
        assert_eq!(ms[1].name(), "M(3,3)");
        assert!(ms.iter().all(|m| m.delta() == 600 && m.phi() == 5.0));
    }

    #[test]
    fn chains_are_acyclic_cycles_are_not() {
        let ms = all_motifs(1, 0.0);
        let cyclic: Vec<_> = ms.iter().filter(|m| m.path().has_cycle()).map(|m| m.name()).collect();
        assert_eq!(
            cyclic,
            vec!["M(3,3)", "M(4,4)A", "M(4,4)B", "M(4,4)C", "M(5,5)A", "M(5,5)B", "M(5,5)C"]
        );
    }

    #[test]
    fn by_name_is_forgiving() {
        assert_eq!(by_name("m(4,4)b", 10, 0.0).unwrap().name(), "M(4,4)B");
        assert_eq!(by_name(" M(3,3) ", 10, 0.0).unwrap().name(), "M(3,3)");
        assert!(by_name("M(6,6)", 10, 0.0).is_err());
    }

    #[test]
    fn parse_motif_accepts_walks() {
        let m = parse_motif("0-1-2-0", 10, 2.0).unwrap();
        assert_eq!(m.path().walk(), &[0, 1, 2, 0]);
        let m = parse_motif("0 1 2 3", 10, 2.0).unwrap();
        assert_eq!(m.num_edges(), 3);
        assert!(parse_motif("garbage", 10, 2.0).is_err());
        assert!(parse_motif("0-0", 10, 2.0).is_err());
    }

    #[test]
    fn parse_motif_reports_the_catalog_error_for_a_named_motif() {
        assert_eq!(parse_motif("M(3,2)", -5, 0.0).unwrap_err(), MotifError::NegativeDelta(-5));
        assert_eq!(parse_motif("m(3,3)", 10, -1.0).unwrap_err(), MotifError::InvalidPhi(-1.0));
        // A walk with a bad δ reports the same error; an unknown name
        // that is not a walk still says so.
        assert_eq!(parse_motif("0-1-2", -5, 0.0).unwrap_err(), MotifError::NegativeDelta(-5));
        assert_eq!(
            parse_motif("M(9,9)", -5, 0.0).unwrap_err(),
            MotifError::UnknownMotifName("M(9,9)".into())
        );
    }
}
