//! Seeded inputs. The program under test only ever sees what is made
//! here: an edge-list file or request lines. The same seed gives
//! byte-identical inputs, fingerprinted by [`Fnv`].

use flowmotif_datasets::Dataset;
use flowmotif_graph::{io, Interaction, TemporalMultigraph};
use std::path::Path;

/// Generator seed of the graphs the servers hold. Like the paper's fixed
/// datasets, a served graph is the same in every run; the run's seed
/// draws the traffic. (Per-seed graphs differ by ±15% in query cost,
/// which would swamp any change a serving benchmark should show.)
pub const DATASET_SEED: u64 = 42;

/// 64-bit FNV-1a over everything fed to it.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Generates the Facebook-shaped graph at `scale`, writes it as an edge
/// list to `path`, and returns it with the hash of the file's bytes.
pub fn facebook_edge_list(
    scale: f64,
    seed: u64,
    path: &Path,
) -> std::io::Result<(TemporalMultigraph, Fnv)> {
    let mg = Dataset::Facebook.generate_multigraph(scale, seed);
    let mut bytes = Vec::new();
    io::write_edge_list(&mg, &mut bytes).map_err(std::io::Error::other)?;
    std::fs::write(path, &bytes)?;
    let mut h = Fnv::new();
    h.feed(&bytes);
    Ok((mg, h))
}

/// The interactions of `mg` in time order (ties in generation order)
/// renumbered to times 0, 1, 2, …: one time unit per `add`, so an
/// `EVENT`'s `last=` names the add that completed it.
pub fn unit_time_stream(mg: &TemporalMultigraph) -> Vec<Interaction> {
    let mut xs = mg.interactions().to_vec();
    xs.sort_by_key(|i| i.time);
    for (t, i) in xs.iter_mut().enumerate() {
        i.time = t as i64;
    }
    xs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        let dir = std::env::temp_dir().join(format!("e2ebench-inputs-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let (a, ha) = facebook_edge_list(0.2, 7, &dir.join("a.tsv")).unwrap();
        let (_, hb) = facebook_edge_list(0.2, 7, &dir.join("b.tsv")).unwrap();
        let (_, hc) = facebook_edge_list(0.2, 8, &dir.join("c.tsv")).unwrap();
        let bytes = |n: &str| std::fs::read(dir.join(n)).unwrap();
        assert_eq!(bytes("a.tsv"), bytes("b.tsv"));
        assert_eq!(ha.hex(), hb.hex());
        assert_ne!(ha.hex(), hc.hex());
        let s = unit_time_stream(&a);
        assert!(s.iter().enumerate().all(|(t, i)| i.time == t as i64));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
