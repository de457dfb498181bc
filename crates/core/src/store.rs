//! Swappable particle storage: AoS (`Vec<Particle>`) or AoSoA blocks.
//!
//! [`ParticleStore`] is the layout abstraction every production consumer
//! goes through — `Species` owns one, the pushers dispatch on it, and the
//! checkpoint layer always serializes the canonical AoS view so dumps stay
//! layout-independent. Both backends hold the *same logical sequence* of
//! particles; conversion is lossless (a pure f32/u32 copy), which is what
//! makes AoS and AoSoA runs bit-identical.

use crate::aosoa::AosoaStore;
use crate::particle::Particle;

/// Particle memory layout selector (the `layout = aos|aosoa` deck knob).
/// The default is AoSoA, the layout the lane kernel runs on; AoS is the
/// scalar oracle, bit-identical by contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Layout {
    /// Array-of-structures: one 32-byte `Particle` per element.
    Aos,
    /// Array-of-structures-of-arrays: blocks of [`crate::aosoa::LANES`]
    /// particles with each field contiguous across the block.
    #[default]
    Aosoa,
}

impl Layout {
    /// Parse a deck value (`"aos"` / `"aosoa"`, case-insensitive).
    pub fn parse(s: &str) -> Option<Layout> {
        match s.trim().to_ascii_lowercase().as_str() {
            "aos" => Some(Layout::Aos),
            "aosoa" => Some(Layout::Aosoa),
            _ => None,
        }
    }

    /// Canonical deck spelling.
    pub fn name(self) -> &'static str {
        match self {
            Layout::Aos => "aos",
            Layout::Aosoa => "aosoa",
        }
    }
}

impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Layout-tagged particle storage. The logical contents (a sequence of
/// particles, indexable 0..len) are identical in both variants; only the
/// memory layout differs.
#[derive(Clone, Debug)]
pub enum ParticleStore {
    Aos(Vec<Particle>),
    Aosoa(AosoaStore),
}

/// An empty store in the default layout, so a species built outside a
/// simulation — a loader's, a restored dump's — is already in the layout
/// the simulation will convert it to.
impl Default for ParticleStore {
    fn default() -> Self {
        ParticleStore::new(Layout::default())
    }
}

/// Equality is *logical*: same particle sequence, layout ignored — so an
/// AoS run can be compared against its AoSoA twin directly.
impl PartialEq for ParticleStore {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl ParticleStore {
    /// New empty store in the given layout.
    pub fn new(layout: Layout) -> Self {
        match layout {
            Layout::Aos => ParticleStore::Aos(Vec::new()),
            Layout::Aosoa => ParticleStore::Aosoa(AosoaStore::default()),
        }
    }

    /// Build from an AoS vector (AoS wraps without copying).
    pub fn from_particles(parts: Vec<Particle>, layout: Layout) -> Self {
        match layout {
            Layout::Aos => ParticleStore::Aos(parts),
            Layout::Aosoa => ParticleStore::Aosoa(AosoaStore::from_particles(&parts)),
        }
    }

    /// Which layout this store uses.
    pub fn layout(&self) -> Layout {
        match self {
            ParticleStore::Aos(_) => Layout::Aos,
            ParticleStore::Aosoa(_) => Layout::Aosoa,
        }
    }

    /// Convert in place to `layout` (no-op when already there).
    pub fn convert(&mut self, layout: Layout) {
        if self.layout() == layout {
            return;
        }
        let parts = self.to_particles();
        *self = ParticleStore::from_particles(parts, layout);
    }

    /// Number of particles.
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            ParticleStore::Aos(v) => v.len(),
            ParticleStore::Aosoa(s) => s.len(),
        }
    }

    /// True when empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all particles (keeps capacity).
    pub fn clear(&mut self) {
        match self {
            ParticleStore::Aos(v) => v.clear(),
            ParticleStore::Aosoa(s) => s.clear(),
        }
    }

    /// Reserve room for `additional` more particles.
    pub fn reserve(&mut self, additional: usize) {
        match self {
            ParticleStore::Aos(v) => v.reserve(additional),
            ParticleStore::Aosoa(s) => s.reserve(additional),
        }
    }

    /// Copy out particle `i`.
    #[inline]
    pub fn get(&self, i: usize) -> Particle {
        match self {
            ParticleStore::Aos(v) => v[i],
            ParticleStore::Aosoa(s) => s.get(i),
        }
    }

    /// Overwrite particle `i`.
    #[inline]
    pub fn set(&mut self, i: usize, p: Particle) {
        match self {
            ParticleStore::Aos(v) => v[i] = p,
            ParticleStore::Aosoa(s) => s.set(i, p),
        }
    }

    /// Voxel index of particle `i` (cheaper than a full [`Self::get`]).
    #[inline]
    pub fn voxel(&self, i: usize) -> u32 {
        match self {
            ParticleStore::Aos(v) => v[i].i,
            ParticleStore::Aosoa(s) => s.voxel(i),
        }
    }

    /// Append a particle.
    #[inline]
    pub fn push(&mut self, p: Particle) {
        match self {
            ParticleStore::Aos(v) => v.push(p),
            ParticleStore::Aosoa(s) => s.push(p),
        }
    }

    /// Append every particle of `it`.
    pub fn extend(&mut self, it: impl IntoIterator<Item = Particle>) {
        match self {
            ParticleStore::Aos(v) => v.extend(it),
            ParticleStore::Aosoa(s) => {
                for p in it {
                    s.push(p);
                }
            }
        }
    }

    /// Remove particle `i` by swapping in the last one; returns it.
    #[inline]
    pub fn swap_remove(&mut self, i: usize) -> Particle {
        match self {
            ParticleStore::Aos(v) => v.swap_remove(i),
            ParticleStore::Aosoa(s) => s.swap_remove(i),
        }
    }

    /// Iterate particles by value in index order.
    pub fn iter(&self) -> StoreIter<'_> {
        match self {
            ParticleStore::Aos(v) => StoreIter::Aos(v.iter()),
            ParticleStore::Aosoa(s) => StoreIter::Aosoa { store: s, idx: 0 },
        }
    }

    /// Copy out the canonical AoS view (what checkpoints serialize).
    pub fn to_particles(&self) -> Vec<Particle> {
        match self {
            ParticleStore::Aos(v) => v.clone(),
            ParticleStore::Aosoa(s) => s.to_particles(),
        }
    }
}

/// By-value particle iterator over either backend.
pub enum StoreIter<'a> {
    Aos(std::slice::Iter<'a, Particle>),
    Aosoa { store: &'a AosoaStore, idx: usize },
}

impl Iterator for StoreIter<'_> {
    type Item = Particle;

    #[inline]
    fn next(&mut self) -> Option<Particle> {
        match self {
            StoreIter::Aos(it) => it.next().copied(),
            StoreIter::Aosoa { store, idx } => {
                if *idx < store.len() {
                    let p = store.get(*idx);
                    *idx += 1;
                    Some(p)
                } else {
                    None
                }
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let n = match self {
            StoreIter::Aos(it) => it.len(),
            StoreIter::Aosoa { store, idx } => store.len() - *idx,
        };
        (n, Some(n))
    }
}

impl ExactSizeIterator for StoreIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random_particles(n: usize, seed: u64) -> Vec<Particle> {
        let mut rng = Rng::seeded(seed);
        (0..n)
            .map(|k| Particle {
                dx: rng.uniform_in(-1.0, 1.0) as f32,
                dy: rng.uniform_in(-1.0, 1.0) as f32,
                dz: rng.uniform_in(-1.0, 1.0) as f32,
                i: k as u32,
                ux: rng.normal() as f32,
                uy: rng.normal() as f32,
                uz: rng.normal() as f32,
                w: 1.0,
            })
            .collect()
    }

    #[test]
    fn layout_parse_and_name() {
        assert_eq!(Layout::parse("aos"), Some(Layout::Aos));
        assert_eq!(Layout::parse(" AoSoA "), Some(Layout::Aosoa));
        assert_eq!(Layout::parse("simd"), None);
        assert_eq!(Layout::Aosoa.name(), "aosoa");
        assert_eq!(Layout::default(), Layout::Aosoa);
        assert_eq!(ParticleStore::default().layout(), Layout::Aosoa);
    }

    #[test]
    fn element_ops_match_across_layouts() {
        let parts = random_particles(21, 7);
        for layout in [Layout::Aos, Layout::Aosoa] {
            let mut st = ParticleStore::from_particles(parts.clone(), layout);
            assert_eq!(st.layout(), layout);
            assert_eq!(st.len(), 21);
            assert_eq!(st.to_particles(), parts);
            assert_eq!(st.iter().collect::<Vec<_>>(), parts);
            for (k, p) in parts.iter().enumerate() {
                assert_eq!(st.get(k), *p);
                assert_eq!(st.voxel(k), p.i);
            }
            let extra = Particle {
                i: 999,
                w: 2.0,
                ..Default::default()
            };
            st.push(extra);
            assert_eq!(st.len(), 22);
            assert_eq!(st.get(21), extra);
            let mut changed = parts[3];
            changed.ux = -5.0;
            st.set(3, changed);
            assert_eq!(st.get(3), changed);
            // swap_remove mirrors Vec::swap_remove semantics.
            let removed = st.swap_remove(0);
            assert_eq!(removed.i, parts[0].i);
            assert_eq!(st.get(0), extra);
            assert_eq!(st.len(), 21);
        }
    }

    #[test]
    fn conversion_roundtrip_is_lossless_and_eq_is_logical() {
        let parts = random_particles(37, 11);
        let aos = ParticleStore::from_particles(parts.clone(), Layout::Aos);
        let mut soa = ParticleStore::from_particles(parts, Layout::Aosoa);
        assert_eq!(aos, soa);
        soa.convert(Layout::Aos);
        assert_eq!(soa.layout(), Layout::Aos);
        assert_eq!(aos, soa);
        soa.convert(Layout::Aosoa);
        soa.convert(Layout::Aosoa); // no-op
        assert_eq!(aos.to_particles(), soa.to_particles());
    }

    #[test]
    fn swap_remove_sequences_match_vec_semantics() {
        let parts = random_particles(19, 3);
        let mut vec_ref = parts.clone();
        let mut soa = ParticleStore::from_particles(parts, Layout::Aosoa);
        for i in [5usize, 0, 10, 3, 3, 0] {
            assert_eq!(vec_ref.swap_remove(i), soa.swap_remove(i));
            assert_eq!(soa.to_particles(), vec_ref);
        }
    }
}
