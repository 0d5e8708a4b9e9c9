//! Typed views over the shared address space.
//!
//! [`SharedArray<T>`] is the application-facing abstraction: a fixed-length
//! array living in the DSM heap at an address all nodes agree on. Reads and
//! writes go through the owning [`DsmNode`]'s page cache (faulting pages in
//! and creating twins as needed).

use crate::node::DsmNode;
use std::marker::PhantomData;
use std::ops::Range;

/// Plain-old-data element: fixed size, byte-serializable.
pub trait Pod: Copy + 'static {
    /// Serialized size in bytes.
    const SIZE: usize;
    /// Write the value into `buf[..SIZE]`.
    fn write_to(&self, buf: &mut [u8]);
    /// Read a value from `buf[..SIZE]`.
    fn read_from(buf: &[u8]) -> Self;
}

macro_rules! pod_prim {
    ($($t:ty),*) => {$(
        impl Pod for $t {
            const SIZE: usize = std::mem::size_of::<$t>();
            fn write_to(&self, buf: &mut [u8]) {
                buf[..Self::SIZE].copy_from_slice(&self.to_le_bytes());
            }
            fn read_from(buf: &[u8]) -> Self {
                <$t>::from_le_bytes(buf[..Self::SIZE].try_into().unwrap())
            }
        }
    )*};
}

pod_prim!(u8, u16, u32, u64, i8, i16, i32, i64, f32, f64);

impl<T: Pod, const N: usize> Pod for [T; N] {
    const SIZE: usize = T::SIZE * N;
    fn write_to(&self, buf: &mut [u8]) {
        for (i, v) in self.iter().enumerate() {
            v.write_to(&mut buf[i * T::SIZE..]);
        }
    }
    fn read_from(buf: &[u8]) -> Self {
        std::array::from_fn(|i| T::read_from(&buf[i * T::SIZE..]))
    }
}

/// A shared, fixed-length, typed array in DSM space.
#[derive(Debug)]
pub struct SharedArray<T: Pod> {
    base: u64,
    len: usize,
    _pd: PhantomData<T>,
}

// Manual impls: `T` need not be Clone/Copy-bounded at the struct level.
impl<T: Pod> Clone for SharedArray<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T: Pod> Copy for SharedArray<T> {}

impl<T: Pod> SharedArray<T> {
    /// Wrap an allocated region (used by `DsmCluster::alloc_array`).
    pub(crate) fn new(base: u64, len: usize) -> Self {
        Self {
            base,
            len,
            _pd: PhantomData,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Virtual address of element `i`.
    pub fn addr(&self, i: usize) -> u64 {
        debug_assert!(i <= self.len);
        self.base + (i * T::SIZE) as u64
    }

    /// Read `range` of elements via `node`'s cache.
    pub async fn read(&self, node: &DsmNode, range: Range<usize>) -> Vec<T> {
        assert!(range.end <= self.len, "read past end of SharedArray");
        let bytes = node
            .read_bytes(self.addr(range.start), (range.end - range.start) * T::SIZE)
            .await;
        bytes.chunks_exact(T::SIZE).map(T::read_from).collect()
    }

    /// Write `data` starting at element `start` via `node`'s cache.
    pub async fn write(&self, node: &DsmNode, start: usize, data: &[T]) {
        assert!(start + data.len() <= self.len, "write past end");
        let mut bytes = vec![0u8; data.len() * T::SIZE];
        for (i, v) in data.iter().enumerate() {
            v.write_to(&mut bytes[i * T::SIZE..]);
        }
        node.write_bytes(self.addr(start), &bytes).await;
    }

    /// Read one element.
    pub async fn get(&self, node: &DsmNode, i: usize) -> T {
        assert!(i < self.len, "index out of bounds");
        let bytes = node.read_bytes(self.addr(i), T::SIZE).await;
        T::read_from(&bytes)
    }

    /// Write one element.
    pub async fn set(&self, node: &DsmNode, i: usize, v: T) {
        assert!(i < self.len, "index out of bounds");
        let mut buf = vec![0u8; T::SIZE];
        v.write_to(&mut buf);
        node.write_bytes(self.addr(i), &buf).await;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pod_round_trips() {
        let mut buf = [0u8; 16];
        42u32.write_to(&mut buf);
        assert_eq!(u32::read_from(&buf), 42);
        (-7i64).write_to(&mut buf);
        assert_eq!(i64::read_from(&buf), -7);
        3.25f64.write_to(&mut buf);
        assert_eq!(f64::read_from(&buf), 3.25);
        [1.5f64, -2.5].write_to(&mut buf);
        assert_eq!(<[f64; 2]>::read_from(&buf), [1.5, -2.5]);
        assert_eq!(<[f64; 2]>::SIZE, 16);
    }

    #[test]
    fn addresses_scale_by_element_size() {
        let a: SharedArray<u64> = SharedArray::new(0x1000, 100);
        assert_eq!(a.addr(0), 0x1000);
        assert_eq!(a.addr(3), 0x1018);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
    }
}
