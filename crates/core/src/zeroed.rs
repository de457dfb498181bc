//! Arrays of plain `f32` records allocated as zeroed pages.
//!
//! `vec![T::default(); n]` writes every record and so keeps the whole
//! array resident. `vec!` of zero `f32`s instead asks the allocator for
//! zeroed memory (a fresh mapping for a large array), so a page nothing
//! writes is never mapped: the accumulators' untouched z-planes, the
//! interpolators' ghost records.

/// A record made of `F32S` `f32`s and nothing else, so that all-zero
/// bytes are a value of it (every field `0.0`).
///
/// # Safety
/// Implementors must be `#[repr(C)]` structs whose fields are `f32`s or
/// arrays of them, `F32S` floats in all.
pub(crate) unsafe trait F32Record: Copy {
    const F32S: usize;
}

/// `n` all-zero records, allocated as zeroed memory.
pub(crate) fn zeroed<T: F32Record>(n: usize) -> Vec<T> {
    const {
        assert!(std::mem::size_of::<T>() == 4 * T::F32S);
        assert!(std::mem::align_of::<T>() == std::mem::align_of::<f32>());
    }
    let mut raw = std::mem::ManuallyDrop::new(vec![0.0f32; n * T::F32S]);
    let (ptr, len, cap) = (raw.as_mut_ptr(), raw.len(), raw.capacity());
    assert!(cap.is_multiple_of(T::F32S));
    // SAFETY: the allocation came from the global allocator as `cap`
    // `f32`s, which is `cap / F32S` records of `T` with the same size and
    // alignment (checked above); its `len` floats are zero bits, so its
    // `n` records are `T`s with every field `0.0` (`F32Record`'s
    // contract); `raw` is never dropped, so the returned `Vec` is the
    // allocation's only owner.
    unsafe { Vec::from_raw_parts(ptr as *mut T, len / T::F32S, cap / T::F32S) }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::Accumulator;
    use crate::interpolator::Interpolator;

    #[test]
    fn zeroed_records_equal_default_records() {
        let a: Vec<Interpolator> = zeroed(37);
        assert_eq!(a.len(), 37);
        assert!(a.iter().all(|r| *r == Interpolator::default()));
        let b: Vec<Accumulator> = zeroed(5);
        assert_eq!(b.len(), 5);
        for r in &b {
            assert!(r
                .jx
                .iter()
                .chain(&r.jy)
                .chain(&r.jz)
                .all(|x| x.to_bits() == 0));
        }
        assert!(zeroed::<Interpolator>(0).is_empty());
    }
}
