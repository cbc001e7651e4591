//! Minimal read-only memory mapping, dependency-free.
//!
//! The segment backend views a packed file as `&[u8]` without reading it
//! into the heap, or an image built in memory through the same type. On unix this is a `PROT_READ`/`MAP_PRIVATE` `mmap(2)`
//! (declared directly against libc, which `std` already links); elsewhere
//! the file is read into owned storage so the rest of the crate stays
//! portable. Both paths guarantee the returned bytes are **8-aligned**,
//! which is what lets [`crate::segment::SegmentStore`] reinterpret
//! sections as `u32`/`u64`/`i64`/`f64`/`Event` slices safely.

use std::fs::File;
use std::io;

/// A read-only byte view of an open file.
#[derive(Debug)]
pub(crate) struct Mmap {
    backing: Backing,
    len: usize,
}

#[derive(Debug)]
enum Backing {
    /// A live `mmap(2)` region (unix only), unmapped on drop.
    #[cfg(unix)]
    Mapped(*const u8),
    /// Owned bytes: a segment image built in memory, or the fallback
    /// where `mmap(2)` is unavailable. `u64` storage keeps the base
    /// pointer 8-aligned, which a `Vec<u8>` would not.
    Owned(Vec<u64>),
}

#[cfg(unix)]
mod sys {
    use std::os::raw::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

impl Mmap {
    /// Maps `file` read-only. Empty files yield an empty view (mapping a
    /// zero-length file is an error on most platforms).
    pub(crate) fn map(file: &File) -> io::Result<Self> {
        let len = file.metadata()?.len();
        let len = usize::try_from(len)
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "file too large to map"))?;
        if len == 0 {
            return Ok(Self { backing: Backing::Owned(Vec::new()), len: 0 });
        }
        Self::map_nonempty(file, len)
    }

    #[cfg(unix)]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Self> {
        use std::os::unix::io::AsRawFd;
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return Err(io::Error::last_os_error());
        }
        crate::metrics::SEGMENT_MAPPED_BYTES.add(len as u64);
        Ok(Self { backing: Backing::Mapped(ptr as *const u8), len })
    }

    #[cfg(not(unix))]
    fn map_nonempty(file: &File, len: usize) -> io::Result<Self> {
        use std::io::Read;
        let mut words = vec![0u64; len.div_ceil(8)];
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, len) };
        let mut f = file;
        f.read_exact(bytes)?;
        crate::metrics::SEGMENT_MAPPED_BYTES.add(len as u64);
        Ok(Self { backing: Backing::Owned(words), len })
    }

    /// A view of the first `len` bytes of an image built in memory (the
    /// segment writer's in-memory sink).
    pub(crate) fn owned(words: Vec<u64>, len: usize) -> Self {
        assert!(len <= words.len() * 8, "image shorter than its declared length");
        crate::metrics::SEGMENT_MAPPED_BYTES.add(len as u64);
        Self { backing: Backing::Owned(words), len }
    }

    /// The view's length in bytes.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The mapped bytes. The base pointer is 8-aligned (page-aligned on
    /// the mmap path, `u64`-backed on the owned path).
    #[inline]
    pub(crate) fn bytes(&self) -> &[u8] {
        match &self.backing {
            #[cfg(unix)]
            Backing::Mapped(ptr) => unsafe { std::slice::from_raw_parts(*ptr, self.len) },
            Backing::Owned(words) => unsafe {
                std::slice::from_raw_parts(words.as_ptr() as *const u8, self.len)
            },
        }
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self.bytes()
    }
}

/// `words` as bytes: `u8` has no alignment requirement, and every bit
/// pattern is a valid `u64`.
pub(crate) fn bytes_of_mut(words: &mut [u64]) -> &mut [u8] {
    // SAFETY: the byte view covers exactly the words' storage and
    // borrows it mutably for its whole lifetime.
    unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr() as *mut u8, words.len() * 8) }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            crate::metrics::SEGMENT_MAPPED_BYTES.sub(self.len as u64);
        }
        #[cfg(unix)]
        if let Backing::Mapped(ptr) = self.backing {
            unsafe {
                sys::munmap(ptr as *mut std::os::raw::c_void, self.len);
            }
        }
    }
}

// SAFETY: the region is immutable for the lifetime of the map (private,
// read-only), so shared access from any thread is sound.
unsafe impl Send for Mmap {}
unsafe impl Sync for Mmap {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmp(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("flowmotif-mmap-{}-{name}", std::process::id()));
        let mut f = File::create(&p).unwrap();
        f.write_all(contents).unwrap();
        p
    }

    #[test]
    fn maps_file_contents() {
        let p = tmp("basic", b"hello segment");
        let m = Mmap::map(&File::open(&p).unwrap()).unwrap();
        assert_eq!(m.bytes(), b"hello segment");
        assert_eq!(m.bytes().as_ptr() as usize % 8, 0, "base must be 8-aligned");
        std::fs::remove_file(p).unwrap();
    }

    #[test]
    fn empty_file_maps_to_empty_view() {
        let p = tmp("empty", b"");
        let m = Mmap::map(&File::open(&p).unwrap()).unwrap();
        assert!(m.bytes().is_empty());
        std::fs::remove_file(p).unwrap();
    }
}
