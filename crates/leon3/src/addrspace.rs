//! Physical address space with protection contexts.
//!
//! XtratuM configures the LEON3 MMU so that each partition can only touch
//! the memory areas assigned to it by the system configuration, while the
//! kernel (supervisor mode) sees everything. This module models exactly
//! that: named regions with an owner and permissions, plus access checks
//! that produce the same trap a real LEON3 would raise.

use crate::trap::Trap;
use crate::Addr;
use std::sync::Arc;

/// Read/write/execute permission bits of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Perms {
    /// Loads allowed.
    pub read: bool,
    /// Stores allowed.
    pub write: bool,
    /// Instruction fetch allowed.
    pub execute: bool,
}

impl Perms {
    /// Read+write+execute.
    pub const RWX: Perms = Perms { read: true, write: true, execute: true };
    /// Read+write, no execute.
    pub const RW: Perms = Perms { read: true, write: true, execute: false };
    /// Read-only.
    pub const RO: Perms = Perms { read: true, write: false, execute: false };
    /// Read + execute (code ROM).
    pub const RX: Perms = Perms { read: true, write: false, execute: true };
}

/// Who a region belongs to, for protection-context checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// Kernel-private memory (hypervisor image, kernel stacks, HM log).
    Kernel,
    /// Memory area assigned to partition `id`.
    Partition(u32),
    /// Memory readable/writable by every partition (e.g. a shared pool).
    Shared,
    /// Memory-mapped device registers; only the kernel may touch them.
    Device,
}

/// The protection context an access executes in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessCtx {
    /// Supervisor mode — the separation kernel. Sees everything.
    Kernel,
    /// User mode inside partition `id`.
    Partition(u32),
}

/// Load or store, for fault reporting and permission checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
    /// An instruction fetch.
    Execute,
}

/// Why an access faulted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemFaultKind {
    /// No region maps the address range.
    Unmapped,
    /// Address not aligned to the access width.
    Misaligned,
    /// Region exists but the context/permissions forbid the access.
    Protection,
}

/// A failed memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemFault {
    /// Faulting address.
    pub addr: Addr,
    /// Access that failed.
    pub kind: AccessKind,
    /// Failure cause.
    pub fault: MemFaultKind,
}

impl MemFault {
    /// The SPARC trap this fault raises.
    pub fn trap(&self) -> Trap {
        match self.fault {
            MemFaultKind::Misaligned => Trap::MemAddressNotAligned,
            _ => match self.kind {
                AccessKind::Execute => Trap::InstructionAccessException,
                _ => Trap::DataAccessException { addr: self.addr },
            },
        }
    }
}

/// A contiguous, backed memory region.
#[derive(Debug, Clone)]
pub struct Region {
    /// Human-readable name (shows up in HM logs and reports).
    pub name: String,
    /// First address of the region.
    pub base: Addr,
    /// Length in bytes.
    pub size: u32,
    /// Protection owner.
    pub owner: Owner,
    /// Permission bits (checked for partition contexts; the kernel
    /// bypasses permissions but still faults on unmapped addresses).
    pub perms: Perms,
}

impl Region {
    fn contains(&self, addr: Addr) -> bool {
        addr >= self.base && (addr as u64) < self.base as u64 + self.size as u64
    }

    fn contains_range(&self, addr: Addr, len: u32) -> bool {
        self.contains(addr) && (addr as u64 + len as u64) <= self.base as u64 + self.size as u64
    }
}

const PAGE_BITS: usize = 12;
const PAGE: usize = 1 << PAGE_BITS;
const BLOCK_BITS: usize = 8;
/// Granule of dirty tracking: a restore copies back whole 256-byte blocks.
const BLOCK: usize = 1 << BLOCK_BITS;

/// Backing store of one region: 4 KiB pages with dirty tracking in
/// 256-byte blocks.
///
/// Loads and stores are direct copies into the page they address — no
/// refcounting, no copy-on-write bookkeeping on the access path. Every
/// store marks the blocks it touches; [`RegionMem::restore_from`] copies
/// back only the marked blocks, which is what makes per-test state reset
/// in the campaign executor a bounded memcpy proportional to the bytes a
/// test actually dirtied, not to the configured memory size.
///
/// A page is allocated at its first store; until then it reads as zeros.
/// A campaign's boot snapshot has written only a handful of its pages (9
/// of 97 on the EagleEye testbed), so boot zeroes nothing and a snapshot
/// clone copies only those.
#[derive(Debug)]
struct RegionMem {
    /// Page `i` of the region, `None` while it has never been written.
    pages: Box<[Option<Box<[u8; PAGE]>>]>,
    /// Pages holding a block written since creation, the last clone, or
    /// the last restore.
    dirty: Vec<u32>,
    /// Per page, one bit per written block (bit `b` covers bytes
    /// `b * BLOCK..(b + 1) * BLOCK`); non-zero exactly for the pages in
    /// `dirty`, so it also dedups them in constant time.
    dirty_blocks: Box<[u16]>,
}

// One bit per block of a page must fit the per-page mask.
const _: () = assert!(PAGE / BLOCK == u16::BITS as usize);

/// What a never-written page reads as.
static ZERO_PAGE: [u8; PAGE] = [0; PAGE];

impl Clone for RegionMem {
    /// A clone starts with an empty dirty set: it is byte-identical to
    /// its source at clone time, so a later
    /// [`restore_from`](RegionMem::restore_from) against that (since
    /// unmodified) source only needs the blocks written *after* the clone.
    fn clone(&self) -> Self {
        RegionMem {
            pages: self.pages.clone(),
            dirty: Vec::new(),
            dirty_blocks: vec![0; self.dirty_blocks.len()].into_boxed_slice(),
        }
    }
}

impl RegionMem {
    fn zeroed(len: usize) -> Self {
        let n_pages = len.div_ceil(PAGE);
        RegionMem {
            pages: (0..n_pages).map(|_| None).collect(),
            dirty: Vec::new(),
            dirty_blocks: vec![0; n_pages].into_boxed_slice(),
        }
    }

    fn page(&self, p: usize) -> &[u8; PAGE] {
        self.pages[p].as_deref().unwrap_or(&ZERO_PAGE)
    }

    fn read(&self, off: usize, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        self.read_into(off, len, &mut out);
        out
    }

    fn read_into(&self, off: usize, len: usize, out: &mut Vec<u8>) {
        let end = off + len;
        let mut pos = off;
        while pos < end {
            let run = self.slice(pos, end - pos);
            out.extend_from_slice(run);
            pos += run.len();
        }
    }

    /// A fixed-size load, which may straddle pages.
    fn read_array<const N: usize>(&self, off: usize) -> [u8; N] {
        let o = off & (PAGE - 1);
        if let Some(bytes) = self.page(off >> PAGE_BITS).get(o..o + N) {
            return bytes.try_into().expect("the range is N bytes long");
        }
        let mut out = [0u8; N];
        let mut pos = 0;
        while pos < N {
            let run = self.slice(off + pos, N - pos);
            out[pos..pos + run.len()].copy_from_slice(run);
            pos += run.len();
        }
        out
    }

    /// Borrows up to `len` bytes at `off`, stopping at the end of the page.
    fn slice(&self, off: usize, len: usize) -> &[u8] {
        let o = off & (PAGE - 1);
        &self.page(off >> PAGE_BITS)[o..o + len.min(PAGE - o)]
    }

    fn write(&mut self, off: usize, data: &[u8]) {
        let (p, o) = (off >> PAGE_BITS, off & (PAGE - 1));
        if !data.is_empty() && o + data.len() <= PAGE {
            // The common case: the store stays within one page.
            self.write_in_page(p, o, data);
            return;
        }
        let mut pos = off;
        let mut rest = data;
        while !rest.is_empty() {
            let (p, o) = (pos >> PAGE_BITS, pos & (PAGE - 1));
            let n = rest.len().min(PAGE - o);
            self.write_in_page(p, o, &rest[..n]);
            pos += n;
            rest = &rest[n..];
        }
    }

    /// Stores non-empty `data` at offset `o` of page `p`, which holds it.
    fn write_in_page(&mut self, p: usize, o: usize, data: &[u8]) {
        let (first, last) = (o >> BLOCK_BITS, (o + data.len() - 1) >> BLOCK_BITS);
        let mask = ((2u32 << last) - (1u32 << first)) as u16;
        if self.dirty_blocks[p] == 0 {
            self.dirty.push(p as u32);
        }
        self.dirty_blocks[p] |= mask;
        let page = self.pages[p].get_or_insert_with(|| Box::new([0; PAGE]));
        page[o..o + data.len()].copy_from_slice(data);
    }

    /// Copies back every dirty block from `src` (zeros where `src` never
    /// wrote the page) and clears the dirty set; adjacent dirty blocks go
    /// in one copy. `src` must be the buffer this one was cloned from (or
    /// restored to last), unmodified since — clean blocks are already
    /// identical.
    fn restore_from(&mut self, src: &RegionMem) {
        debug_assert_eq!(self.pages.len(), src.pages.len());
        for &p in &self.dirty {
            let p = p as usize;
            let page = self.pages[p].as_mut().expect("a dirty page has been written");
            let from = src.page(p);
            let mut mask = std::mem::take(&mut self.dirty_blocks[p]) as u32;
            while mask != 0 {
                let first = mask.trailing_zeros();
                let run = (mask >> first).trailing_ones();
                let (lo, hi) =
                    ((first as usize) << BLOCK_BITS, ((first + run) as usize) << BLOCK_BITS);
                page[lo..hi].copy_from_slice(&from[lo..hi]);
                mask &= !(((1u32 << run) - 1) << first);
            }
        }
        self.dirty.clear();
    }
}

/// The simulated physical address space.
///
/// ```
/// use leon3_sim::addrspace::*;
///
/// let mut mem = AddressSpace::new();
/// mem.add_region(Region {
///     name: "p0".into(),
///     base: 0x4010_0000,
///     size: 0x1000,
///     owner: Owner::Partition(0),
///     perms: Perms::RW,
/// }).unwrap();
///
/// // Partition 0 can use its own memory...
/// mem.write_u32(AccessCtx::Partition(0), 0x4010_0000, 7).unwrap();
/// assert_eq!(mem.read_u32(AccessCtx::Partition(0), 0x4010_0000).unwrap(), 7);
/// // ... but partition 1 faults on it (spatial isolation).
/// let fault = mem.read_u32(AccessCtx::Partition(1), 0x4010_0000).unwrap_err();
/// assert_eq!(fault.fault, MemFaultKind::Protection);
/// ```
#[derive(Debug, Default, Clone)]
pub struct AddressSpace {
    // Arc-shared so snapshot clones don't reallocate the metadata (the
    // region names are heap strings); add_region is the only mutator.
    regions: Arc<Vec<Region>>,
    backing: Vec<RegionMem>,
}

impl AddressSpace {
    /// Creates an empty address space.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a zero-initialised region. Overlapping regions are rejected —
    /// the XM configuration tool performs the same validation.
    pub fn add_region(&mut self, region: Region) -> Result<usize, String> {
        if region.size == 0 {
            return Err(format!("region '{}' has zero size", region.name));
        }
        if region.base as u64 + region.size as u64 > u32::MAX as u64 + 1 {
            return Err(format!("region '{}' exceeds the 32-bit address space", region.name));
        }
        for r in self.regions.iter() {
            let a0 = region.base as u64;
            let a1 = a0 + region.size as u64;
            let b0 = r.base as u64;
            let b1 = b0 + r.size as u64;
            if a0 < b1 && b0 < a1 {
                return Err(format!("region '{}' overlaps region '{}'", region.name, r.name));
            }
        }
        self.backing.push(RegionMem::zeroed(region.size as usize));
        Arc::make_mut(&mut self.regions).push(region);
        Ok(self.regions.len() - 1)
    }

    /// All configured regions.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// Restores every region to `src`'s contents by copying back only the
    /// 256-byte blocks written since this space was cloned from `src` (or
    /// last restored to it). `src` is the boot image: it must be
    /// unmodified since the clone, which holds for boot snapshots — they
    /// are never executed once captured. Allocation-free and bounded
    /// by the number of dirty blocks, this is the campaign executor's
    /// per-test state reset.
    pub fn restore_from(&mut self, src: &AddressSpace) {
        debug_assert_eq!(self.backing.len(), src.backing.len(), "region layout mismatch");
        self.regions.clone_from(&src.regions);
        for (dst, s) in self.backing.iter_mut().zip(&src.backing) {
            dst.restore_from(s);
        }
    }

    /// Pages holding at least one dirty block, across all regions
    /// (diagnostics for the restore path, which copies only those pages'
    /// dirty blocks).
    pub fn dirty_pages(&self) -> usize {
        self.backing.iter().map(|b| b.dirty.len()).sum()
    }

    /// Finds the region covering `addr`, if any.
    pub fn region_at(&self, addr: Addr) -> Option<&Region> {
        self.regions.iter().find(|r| r.contains(addr))
    }

    fn region_index(&self, addr: Addr, len: u32) -> Option<usize> {
        self.regions.iter().position(|r| r.contains_range(addr, len))
    }

    /// Checks whether `ctx` may perform `kind` on `[addr, addr+len)`.
    ///
    /// Rules (mirroring XM's MMU setup):
    /// * any context faults on unmapped or cross-region ranges;
    /// * accesses must be aligned to their width (callers pass `align`);
    /// * the kernel may access everything mapped;
    /// * partition `i` may access regions owned by `Partition(i)`, and
    ///   `Shared` regions, subject to the region permission bits; every
    ///   other owner (kernel memory, other partitions, devices) is a
    ///   protection fault — that *is* spatial isolation.
    pub fn check(
        &self,
        ctx: AccessCtx,
        addr: Addr,
        len: u32,
        align: u32,
        kind: AccessKind,
    ) -> Result<(), MemFault> {
        self.locate(ctx, addr, len, align, kind).map(|_| ())
    }

    /// [`check`](Self::check) that also returns the index of the (single,
    /// by `contains_range`) region holding the range, so the access paths
    /// below pay for the linear region scan once instead of twice.
    fn locate(
        &self,
        ctx: AccessCtx,
        addr: Addr,
        len: u32,
        align: u32,
        kind: AccessKind,
    ) -> Result<usize, MemFault> {
        if align > 1 && !addr.is_multiple_of(align) {
            return Err(MemFault { addr, kind, fault: MemFaultKind::Misaligned });
        }
        let idx = self.region_index(addr, len).ok_or(MemFault {
            addr,
            kind,
            fault: MemFaultKind::Unmapped,
        })?;
        let region = &self.regions[idx];
        match ctx {
            AccessCtx::Kernel => Ok(idx),
            AccessCtx::Partition(p) => {
                let owner_ok = match region.owner {
                    Owner::Partition(o) => o == p,
                    Owner::Shared => true,
                    Owner::Kernel | Owner::Device => false,
                };
                let perm_ok = match kind {
                    AccessKind::Read => region.perms.read,
                    AccessKind::Write => region.perms.write,
                    AccessKind::Execute => region.perms.execute,
                };
                if owner_ok && perm_ok {
                    Ok(idx)
                } else {
                    Err(MemFault { addr, kind, fault: MemFaultKind::Protection })
                }
            }
        }
    }

    /// How many consecutive aligned `width`-byte loads at `addr`,
    /// `addr + width`, … succeed in `ctx`, capped at `max`: the load at
    /// `addr + n * width` (`n` the result, when below `max`) is the first
    /// that faults. Permissions are uniform within a region, so this costs
    /// one region lookup per region the run crosses, not one per load.
    pub fn aligned_read_count(&self, ctx: AccessCtx, addr: Addr, width: u32, max: u32) -> u32 {
        debug_assert!(width > 0, "zero-width loads");
        let mut n = 0u32;
        let mut cur = addr as u64;
        while n < max && cur + width as u64 <= 1 << 32 {
            let Ok(idx) = self.locate(ctx, cur as Addr, width, width, AccessKind::Read) else {
                break;
            };
            let region = &self.regions[idx];
            let end = region.base as u64 + region.size as u64;
            // At least one: the located load lies inside the region.
            let fit = ((end - cur) / width as u64).min((max - n) as u64);
            n += fit as u32;
            cur += fit * width as u64;
        }
        n
    }

    fn offset(&self, idx: usize, addr: Addr) -> usize {
        (addr - self.regions[idx].base) as usize
    }

    /// Reads `len` bytes after a successful [`check`](Self::check).
    pub fn read_bytes(&self, ctx: AccessCtx, addr: Addr, len: u32) -> Result<Vec<u8>, MemFault> {
        let idx = self.locate(ctx, addr, len, 1, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        Ok(self.backing[idx].read(off, len as usize))
    }

    /// Reads `len` bytes, appending to `out` — the allocation-free
    /// counterpart of [`read_bytes`](Self::read_bytes) for callers that
    /// reuse a scratch buffer.
    pub fn read_bytes_into(
        &self,
        ctx: AccessCtx,
        addr: Addr,
        len: u32,
        out: &mut Vec<u8>,
    ) -> Result<(), MemFault> {
        let idx = self.locate(ctx, addr, len, 1, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        self.backing[idx].read_into(off, len as usize, out);
        Ok(())
    }

    /// Single-byte load (used by NUL-terminated string reads; no `Vec`).
    pub fn read_u8(&self, ctx: AccessCtx, addr: Addr) -> Result<u8, MemFault> {
        let idx = self.locate(ctx, addr, 1, 1, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        Ok(self.backing[idx].read_array::<1>(off)[0])
    }

    /// Borrows the readable bytes starting at `addr` within its region, up
    /// to `max` of them — the chunked primitive behind NUL-terminated
    /// string reads: permissions are uniform within a region, so one check
    /// covers the whole run, and a fault surfaces exactly where a one-byte
    /// read at `addr` would fault. Returns at least one byte when `max >=
    /// 1` (regions are non-empty and never cross the 4 GiB boundary); the
    /// run ends at the next 4 KiB page boundary of the region at the latest.
    pub fn read_run(&self, ctx: AccessCtx, addr: Addr, max: u32) -> Result<&[u8], MemFault> {
        let idx = self.locate(ctx, addr, 1, 1, AccessKind::Read)?;
        let region = &self.regions[idx];
        let off = (addr - region.base) as usize;
        let avail = (region.size as u64 - off as u64).min(max as u64) as usize;
        Ok(self.backing[idx].slice(off, avail))
    }

    /// Writes bytes after a successful check.
    pub fn write_bytes(&mut self, ctx: AccessCtx, addr: Addr, data: &[u8]) -> Result<(), MemFault> {
        let len = data.len() as u32;
        let idx = self.locate(ctx, addr, len, 1, AccessKind::Write)?;
        let off = self.offset(idx, addr);
        self.backing[idx].write(off, data);
        Ok(())
    }

    /// Aligned 32-bit load.
    pub fn read_u32(&self, ctx: AccessCtx, addr: Addr) -> Result<u32, MemFault> {
        let idx = self.locate(ctx, addr, 4, 4, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        Ok(u32::from_be_bytes(self.backing[idx].read_array(off)))
    }

    /// Aligned 32-bit store.
    pub fn write_u32(&mut self, ctx: AccessCtx, addr: Addr, v: u32) -> Result<(), MemFault> {
        let idx = self.locate(ctx, addr, 4, 4, AccessKind::Write)?;
        let off = self.offset(idx, addr);
        self.backing[idx].write(off, &v.to_be_bytes());
        Ok(())
    }

    /// Consecutive aligned 32-bit stores with a single whole-range check —
    /// byte-identical (values, byte order, dirty pages) to one
    /// [`write_u32`](Self::write_u32) per word, and since the range check
    /// proves every word lies in one region, the per-word stores are
    /// infallible: partial writes never happen, matching the per-word
    /// path's validate-first contract.
    pub fn write_u32s(
        &mut self,
        ctx: AccessCtx,
        addr: Addr,
        words: &[u32],
    ) -> Result<(), MemFault> {
        let idx = self.locate(ctx, addr, (words.len() * 4) as u32, 4, AccessKind::Write)?;
        let off = self.offset(idx, addr);
        let mem = &mut self.backing[idx];
        for (i, w) in words.iter().enumerate() {
            mem.write(off + i * 4, &w.to_be_bytes());
        }
        Ok(())
    }

    /// Aligned 64-bit load (big-endian, as on SPARC).
    pub fn read_u64(&self, ctx: AccessCtx, addr: Addr) -> Result<u64, MemFault> {
        let idx = self.locate(ctx, addr, 8, 8, AccessKind::Read)?;
        let off = self.offset(idx, addr);
        Ok(u64::from_be_bytes(self.backing[idx].read_array(off)))
    }

    /// Aligned 64-bit store.
    pub fn write_u64(&mut self, ctx: AccessCtx, addr: Addr, v: u64) -> Result<(), MemFault> {
        let idx = self.locate(ctx, addr, 8, 8, AccessKind::Write)?;
        let off = self.offset(idx, addr);
        self.backing[idx].write(off, &v.to_be_bytes());
        Ok(())
    }

    /// Copies `len` bytes between two mapped ranges, with both ranges
    /// checked in `ctx`. Used by `XM_memory_copy`.
    pub fn copy(&mut self, ctx: AccessCtx, dst: Addr, src: Addr, len: u32) -> Result<(), MemFault> {
        if len == 0 {
            return Ok(());
        }
        let data = self.read_bytes(ctx, src, len)?;
        self.write_bytes(ctx, dst, &data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn space() -> AddressSpace {
        let mut a = AddressSpace::new();
        a.add_region(Region {
            name: "kernel".into(),
            base: 0x4000_0000,
            size: 0x10000,
            owner: Owner::Kernel,
            perms: Perms::RW,
        })
        .unwrap();
        a.add_region(Region {
            name: "p0".into(),
            base: 0x4010_0000,
            size: 0x10000,
            owner: Owner::Partition(0),
            perms: Perms::RWX,
        })
        .unwrap();
        a.add_region(Region {
            name: "p1".into(),
            base: 0x4020_0000,
            size: 0x10000,
            owner: Owner::Partition(1),
            perms: Perms::RWX,
        })
        .unwrap();
        a.add_region(Region {
            name: "shared".into(),
            base: 0x4030_0000,
            size: 0x1000,
            owner: Owner::Shared,
            perms: Perms::RO,
        })
        .unwrap();
        a
    }

    #[test]
    fn rejects_overlaps_and_zero_size() {
        let mut a = space();
        let err = a
            .add_region(Region {
                name: "bad".into(),
                base: 0x4010_8000,
                size: 0x10000,
                owner: Owner::Shared,
                perms: Perms::RW,
            })
            .unwrap_err();
        assert!(err.contains("overlaps"));
        assert!(a
            .add_region(Region {
                name: "zero".into(),
                base: 0x5000_0000,
                size: 0,
                owner: Owner::Shared,
                perms: Perms::RW,
            })
            .is_err());
    }

    #[test]
    fn pages_read_zero_until_their_first_store() {
        let mut a = space();
        let p0 = AccessCtx::Partition(0);
        assert!(a.backing[1].pages.iter().all(Option::is_none));
        assert_eq!(a.read_bytes(p0, 0x4010_0ff0, 0x20).unwrap(), vec![0; 0x20]);
        let mut out = vec![9];
        a.read_bytes_into(p0, 0x4010_0000, 3, &mut out).unwrap();
        assert_eq!(out, [9, 0, 0, 0]);
        assert_eq!(a.read_u64(p0, 0x4010_0008).unwrap(), 0);
        // Runs stop at page boundaries.
        assert_eq!(a.read_run(p0, 0x4010_0ff0, 0x8000).unwrap(), [0; 0x10]);

        a.write_u32(p0, 0x4010_2000, 0xDEAD_BEEF).unwrap();
        let written = |a: &AddressSpace, r: usize| {
            a.backing[r]
                .pages
                .iter()
                .enumerate()
                .filter(|(_, p)| p.is_some())
                .map(|(i, _)| i)
                .collect::<Vec<_>>()
        };
        assert_eq!(written(&a, 1), [2]);
        assert_eq!(written(&a.clone(), 1), [2], "clones copy only written pages");
        assert_eq!(a.read_u32(p0, 0x4010_2000).unwrap(), 0xDEAD_BEEF);
        assert_eq!(a.read_bytes(p0, 0x4010_1ffe, 4).unwrap(), [0, 0, 0xDE, 0xAD]);
        // A store straddling pages lands in both.
        a.write_bytes(p0, 0x4010_3ffe, &[1, 2, 3, 4]).unwrap();
        assert_eq!(written(&a, 1), [2, 3, 4]);
        assert_eq!(a.read_bytes(p0, 0x4010_3ffd, 6).unwrap(), [0, 1, 2, 3, 4, 0]);
        assert!(written(&a, 2).is_empty(), "other regions are untouched");
    }

    #[test]
    fn restore_against_an_unwritten_source_page_zeroes_it() {
        let proto = space();
        let mut ws = proto.clone();
        let p0 = AccessCtx::Partition(0);
        ws.write_bytes(p0, 0x4010_0ffe, &[1, 2, 3, 4]).unwrap();
        assert_eq!(ws.dirty_pages(), 2);
        ws.restore_from(&proto);
        assert_eq!(ws.dirty_pages(), 0);
        assert_eq!(ws.read_bytes(p0, 0x4010_0000, 0x2000).unwrap(), vec![0; 0x2000]);
        // Written source: dirty pages come back from it.
        let mut proto = space();
        proto.write_u32(p0, 0x4010_0000, 7).unwrap();
        let mut ws = proto.clone();
        ws.write_u32(p0, 0x4010_0000, 8).unwrap();
        ws.restore_from(&proto);
        assert_eq!(ws.read_u32(p0, 0x4010_0000).unwrap(), 7);
    }

    /// The blocks a region has marked dirty, as `(page, mask)` pairs in
    /// marking order.
    fn dirty_blocks(a: &AddressSpace, r: usize) -> Vec<(u32, u16)> {
        let b = &a.backing[r];
        b.dirty.iter().map(|&p| (p, b.dirty_blocks[p as usize])).collect()
    }

    #[test]
    fn stores_mark_the_blocks_they_touch() {
        let mut a = space();
        let p0 = AccessCtx::Partition(0);
        // Inside one block; the last byte of a block; across a block edge.
        a.write_u32(p0, 0x4010_0010, 1).unwrap();
        a.write_bytes(p0, 0x4010_00ff, &[7]).unwrap();
        a.write_u32(p0, 0x4010_01fc, 2).unwrap();
        assert_eq!(dirty_blocks(&a, 1), [(0, 0b11)]);
        a.write_bytes(p0, 0x4010_01fe, &[3, 4, 5, 6]).unwrap();
        assert_eq!(dirty_blocks(&a, 1), [(0, 0b111)]);
        // Across a page edge: the last block of page 1, the first of page 2.
        a.write_bytes(p0, 0x4010_1ffe, &[8, 9, 10, 11]).unwrap();
        assert_eq!(dirty_blocks(&a, 1), [(0, 0b111), (1, 0x8000), (2, 0b1)]);
        // A long store covers every block in between.
        a.write_bytes(p0, 0x4010_3110, &[1; 0x220]).unwrap();
        assert_eq!(dirty_blocks(&a, 1)[3..], [(3, 0b1110)]);
        a.write_bytes(p0, 0x4010_4000, &[1; 0x1000]).unwrap();
        assert_eq!(dirty_blocks(&a, 1)[4..], [(4, 0xFFFF)]);
    }

    #[test]
    fn dirty_pages_counts_pages_holding_a_dirty_block() {
        let proto = space();
        let mut ws = proto.clone();
        let p0 = AccessCtx::Partition(0);
        assert_eq!(ws.dirty_pages(), 0);
        // Three blocks of one page are one page.
        for off in [0x000, 0x100, 0xf00] {
            ws.write_u32(p0, 0x4010_0000 + off, 1).unwrap();
        }
        assert_eq!(ws.dirty_pages(), 1);
        // Rewriting a dirty block adds nothing; a straddling store adds
        // the next page.
        ws.write_u32(p0, 0x4010_0000, 2).unwrap();
        ws.write_bytes(p0, 0x4010_0ffe, &[1, 2, 3, 4]).unwrap();
        assert_eq!(ws.dirty_pages(), 2);
        // Pages of different regions each count.
        ws.write_u32(AccessCtx::Kernel, 0x4000_0000, 1).unwrap();
        ws.write_u32(AccessCtx::Partition(1), 0x4020_0000, 1).unwrap();
        assert_eq!(ws.dirty_pages(), 4);
        ws.restore_from(&proto);
        assert_eq!(ws.dirty_pages(), 0);
    }

    #[test]
    fn restore_copies_dirty_blocks_and_keeps_clean_ones() {
        // A source with data in every block of page 0 and page 1 never
        // written: the restore must bring back the source's bytes in the
        // dirty blocks, zeros for page 1, and leave the rest alone.
        let p0 = AccessCtx::Partition(0);
        let mut proto = space();
        let pattern: Vec<u8> = (0..0x1000u32).map(|i| (i * 7 + 3) as u8).collect();
        proto.write_bytes(p0, 0x4010_0000, &pattern).unwrap();
        let mut ws = proto.clone();
        ws.write_bytes(p0, 0x4010_00fe, &[0xEE; 4]).unwrap();
        ws.write_bytes(p0, 0x4010_0800, &[0xEE; 0x300]).unwrap();
        ws.write_bytes(p0, 0x4010_0ffc, &[0xEE; 0x104]).unwrap();
        assert_eq!(dirty_blocks(&ws, 1), [(0, 0b1000_0111_0000_0011), (1, 0b1)]);
        ws.restore_from(&proto);
        assert_eq!(ws.read_bytes(p0, 0x4010_0000, 0x1000).unwrap(), pattern);
        assert_eq!(ws.read_bytes(p0, 0x4010_1000, 0x1000).unwrap(), vec![0; 0x1000]);
        // The next round marks afresh: only its own blocks come back.
        ws.write_u32(p0, 0x4010_1f00, 5).unwrap();
        assert_eq!(dirty_blocks(&ws, 1), [(1, 0x8000)]);
        ws.restore_from(&proto);
        assert_eq!(ws.read_u32(p0, 0x4010_1f00).unwrap(), 0);
    }

    #[test]
    fn random_stores_restore_to_the_source_bytes() {
        let p0 = AccessCtx::Partition(0);
        let mut proto = space();
        proto.write_bytes(p0, 0x4010_2100, &[0x5A; 0x1800]).unwrap();
        let want = proto.read_bytes(p0, 0x4010_0000, 0x10000).unwrap();
        let mut ws = proto.clone();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for round in 0..50 {
            for _ in 0..(1 + round % 7) {
                let off = (next() % 0x10000) as u32;
                let len = ((next() % 0x600) as u32).min(0x10000 - off);
                let byte = next() as u8;
                ws.write_bytes(p0, 0x4010_0000 + off, &vec![byte; len as usize]).unwrap();
            }
            ws.restore_from(&proto);
            assert_eq!(ws.read_bytes(p0, 0x4010_0000, 0x10000).unwrap(), want, "round {round}");
            assert_eq!(ws.dirty_pages(), 0);
        }
    }

    #[test]
    fn aligned_read_count_stops_at_the_first_faulting_load() {
        let mut a = space();
        // A region adjacent to p0's end, and one ending at 4 GiB.
        for (name, base, size) in [("p0b", 0x4011_0000, 0x100), ("top", 0xFFFF_F000, 0x1000)] {
            a.add_region(Region {
                name: name.into(),
                base,
                size,
                owner: Owner::Partition(0),
                perms: Perms::RW,
            })
            .unwrap();
        }
        let (k, p0) = (AccessCtx::Kernel, AccessCtx::Partition(0));
        let count = |ctx, addr, max| a.aligned_read_count(ctx, addr, 8, max);
        // Misaligned start, zero cap, unmapped start.
        assert_eq!(count(k, 0x4010_0004, 10), 0);
        assert_eq!(count(k, 0x4010_0000, 0), 0);
        assert_eq!(count(k, 0x1000, 10), 0);
        // Capped inside a region; running exactly to its end.
        assert_eq!(count(k, 0x4010_0000, 10), 10);
        assert_eq!(count(k, 0x4010_fff0, 2), 2);
        // Through two adjacent regions, then into the gap after them.
        assert_eq!(count(k, 0x4010_fff0, 100), 2 + 0x20);
        // Kernel context crosses owners; a partition stops at the first
        // region it may not read.
        assert_eq!(count(k, 0x4000_fff8, 3), 1);
        assert_eq!(count(p0, 0x4000_0000, 3), 0);
        assert_eq!(count(p0, 0x4010_fff8, 100), 1 + 0x20);
        // Up to the last load below 4 GiB.
        assert_eq!(count(k, 0xFFFF_FFF0, u32::MAX), 2);
        assert_eq!(count(k, 0xFFFF_F000, u32::MAX), 0x200);
        // Other widths follow the same rules.
        assert_eq!(a.aligned_read_count(k, 0x4030_0ff8, 4, 10), 2);
        // Every answer agrees with one load per address.
        for (ctx, start) in [(k, 0x4010_ffc0), (p0, 0x4010_ffc0), (k, 0x4011_00c0)] {
            let loop_count =
                (0..64u32).take_while(|i| a.read_u64(ctx, start + i * 8).is_ok()).count();
            assert_eq!(count(ctx, start, 64) as usize, loop_count, "{ctx:?} {start:#x}");
        }
    }

    #[test]
    fn rejects_regions_past_4g() {
        let mut a = AddressSpace::new();
        assert!(a
            .add_region(Region {
                name: "wrap".into(),
                base: 0xFFFF_F000,
                size: 0x2000,
                owner: Owner::Kernel,
                perms: Perms::RW,
            })
            .is_err());
    }

    #[test]
    fn kernel_sees_everything_mapped() {
        let mut a = space();
        a.write_u32(AccessCtx::Kernel, 0x4000_0000, 0xAABBCCDD).unwrap();
        a.write_u32(AccessCtx::Kernel, 0x4010_0000, 1).unwrap();
        a.write_u32(AccessCtx::Kernel, 0x4030_0000, 2).unwrap(); // RO bypassed in supervisor
        assert_eq!(a.read_u32(AccessCtx::Kernel, 0x4000_0000).unwrap(), 0xAABBCCDD);
    }

    #[test]
    fn kernel_still_faults_on_unmapped() {
        let a = space();
        let f = a.read_u32(AccessCtx::Kernel, 0x9000_0000).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Unmapped);
        assert_eq!(f.trap(), Trap::DataAccessException { addr: 0x9000_0000 });
    }

    #[test]
    fn partition_spatial_isolation() {
        let mut a = space();
        // own memory: ok
        a.write_u32(AccessCtx::Partition(0), 0x4010_0000, 7).unwrap();
        // other partition: protection fault
        let f = a.write_u32(AccessCtx::Partition(0), 0x4020_0000, 7).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
        // kernel memory: protection fault
        let f = a.read_u32(AccessCtx::Partition(0), 0x4000_0000).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
    }

    #[test]
    fn shared_region_respects_perms() {
        let mut a = space();
        assert!(a.read_u32(AccessCtx::Partition(1), 0x4030_0000).is_ok());
        let f = a.write_u32(AccessCtx::Partition(1), 0x4030_0000, 1).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
    }

    #[test]
    fn misaligned_access_traps() {
        let a = space();
        let f = a.read_u32(AccessCtx::Kernel, 0x4000_0002).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Misaligned);
        assert_eq!(f.trap(), Trap::MemAddressNotAligned);
    }

    #[test]
    fn cross_region_range_faults() {
        let a = space();
        // Starts inside 'shared' (0x1000 long) but runs past its end.
        let f = a.read_bytes(AccessCtx::Kernel, 0x4030_0FFC, 16).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Unmapped);
    }

    #[test]
    fn u64_round_trip_big_endian() {
        let mut a = space();
        a.write_u64(AccessCtx::Kernel, 0x4000_0008, 0x1122_3344_5566_7788).unwrap();
        assert_eq!(a.read_u64(AccessCtx::Kernel, 0x4000_0008).unwrap(), 0x1122_3344_5566_7788);
        // check big-endian byte order
        assert_eq!(a.read_u32(AccessCtx::Kernel, 0x4000_0008).unwrap(), 0x1122_3344);
        let f = a.read_u64(AccessCtx::Kernel, 0x4000_0004).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Misaligned);
    }

    #[test]
    fn copy_between_regions_checked() {
        let mut a = space();
        a.write_bytes(AccessCtx::Kernel, 0x4010_0000, b"hello").unwrap();
        a.copy(AccessCtx::Kernel, 0x4000_0100, 0x4010_0000, 5).unwrap();
        assert_eq!(a.read_bytes(AccessCtx::Kernel, 0x4000_0100, 5).unwrap(), b"hello");
        // a partition cannot exfiltrate kernel memory via copy
        let f = a.copy(AccessCtx::Partition(0), 0x4010_0000, 0x4000_0000, 4).unwrap_err();
        assert_eq!(f.fault, MemFaultKind::Protection);
        // zero-length copy never faults
        a.copy(AccessCtx::Partition(0), 0, 0, 0).unwrap();
    }

    #[test]
    fn region_at_lookup() {
        let a = space();
        assert_eq!(a.region_at(0x4010_1234).unwrap().name, "p0");
        assert!(a.region_at(0x1000).is_none());
    }
}
