//! Argument domains: how each field of the syscall listing is sampled,
//! written as a corpus word and read back. A domain draws a live value
//! from the caller's [`Pools`] three times in four and an adversarial one
//! otherwise. Addresses and pointers are written in hex, everything else
//! in decimal; the reader takes either.

use std::ops::Range;

use atmo_hw::addr::{PAGE_SIZE_2M, PAGE_SIZE_4K};
use atmo_pm::types::{CpuId, MAX_ENDPOINT_SLOTS};
use atmo_spec::XorShift64Star;

use crate::blk::{BlkOp, BLK_SQ_CAPACITY};

/// The live values a caller offers
/// [`SyscallArgs::sample`](super::SyscallArgs::sample).
#[derive(Clone, Debug)]
pub struct Pools {
    /// A non-empty, page-aligned window of virtual addresses the caller
    /// maps in.
    pub va: Range<usize>,
    /// Kernel-object pointers the caller has seen (at least one): live,
    /// or stale once their object died.
    pub objects: Vec<usize>,
    /// The machine's CPU count.
    pub ncpus: usize,
}

/// How one argument field is drawn, written and read: the field's
/// domain in the listing.
pub trait ArgDomain<T> {
    /// A live value from `pools`, or an adversarial one.
    fn sample(rng: &mut XorShift64Star, pools: &Pools) -> T;
    /// `v` as one corpus word.
    fn write(v: &T) -> String;
    /// One corpus word back; a missing trailing word reads as `-`.
    fn read(word: &str) -> Option<T>;
}

/// How a row's expressions see a field: scalars by value, vectors as
/// slices.
pub(crate) trait FieldView {
    type View<'a>
    where
        Self: 'a;
    fn view(&self) -> Self::View<'_>;
}

macro_rules! by_value {
    ($($t:ty),*) => {$(
        impl FieldView for $t {
            type View<'a> = $t;
            fn view(&self) -> $t {
                *self
            }
        }
    )*};
}

by_value!(usize, u16, u32, bool, [u64; 4], Option<usize>, Option<u32>);

impl<T> FieldView for Vec<T> {
    type View<'a>
        = &'a [T]
    where
        T: 'a;
    fn view(&self) -> &[T] {
        self
    }
}

/// The first address past the lower canonical half.
const NON_CANONICAL: usize = 0x0000_8000_0000_0000;

/// A `live` draw three times in four, else one of `adversarial`.
fn mix<T: Copy>(
    rng: &mut XorShift64Star,
    live: impl FnOnce(&mut XorShift64Star) -> T,
    adversarial: &[T],
) -> T {
    if rng.chance(3, 4) {
        live(rng)
    } else {
        *rng.choose(adversarial)
    }
}

fn num(word: &str) -> Option<usize> {
    match word.strip_prefix("0x") {
        Some(hex) => usize::from_str_radix(hex, 16).ok(),
        None => word.parse().ok(),
    }
}

/// Declares numeric domains: the value type, the format it is written
/// in, and the draw.
macro_rules! numeric {
    ($(
        $(#[doc = $doc:literal])*
        $D:ident: $t:ty, $fmt:literal, |$rng:ident, $pools:ident| $sample:expr;
    )*) => {$(
        $(#[doc = $doc])*
        pub struct $D;

        impl ArgDomain<$t> for $D {
            fn sample($rng: &mut XorShift64Star, $pools: &Pools) -> $t {
                $sample
            }
            fn write(v: &$t) -> String {
                format!($fmt, v)
            }
            fn read(word: &str) -> Option<$t> {
                num(word)?.try_into().ok()
            }
        }
    )*};
}

numeric! {
    /// A page in the caller's window; unaligned, non-canonical, null, top.
    Va: usize, "{:#x}", |rng, pools| {
        let pages = pools.va.len() / PAGE_SIZE_4K;
        let page = |r: &mut XorShift64Star| pools.va.start + r.below(pages) * PAGE_SIZE_4K;
        mix(rng, page, &[pools.va.start + 0x123, NON_CANONICAL, 0, usize::MAX - 0xfff])
    };
    /// A 2 MiB page at the caller's window; 4 KiB-aligned, non-canonical, top.
    Va2M: usize, "{:#x}", |rng, pools| {
        let base = pools.va.start.next_multiple_of(PAGE_SIZE_2M);
        let top = usize::MAX - (PAGE_SIZE_2M - 1);
        mix(rng, |r| base + r.below(4) * PAGE_SIZE_2M, &[base + 0x1000, NON_CANONICAL, top])
    };
    /// A page count: 1 to 8; zero, a superpage, past any quota, overflowing.
    Pages: usize, "{}", |rng, _pools| mix(rng, |r| r.range(1, 9), &[0, 512, 1 << 35, usize::MAX]);
    /// A page reservation: below 64; past any quota.
    Quota: usize, "{}", |rng, _pools| mix(rng, |r| r.below(64), &[1 << 40, usize::MAX]);
    /// A block queue or reap bound: below 4; out of range.
    Small: usize, "{}", |rng, _pools| mix(rng, |r| r.below(4), &[64, usize::MAX]);
    /// A CPU of the machine (owned or not, idle or busy); out of range.
    Cpu: CpuId, "{}", |rng, pools| mix(rng, |r| r.below(pools.ncpus), &[pools.ncpus, usize::MAX]);
    /// An object the caller has seen; null, unaligned, garbage, or a
    /// guess at a low frame (a live, stale or never-allocated object).
    Ptr: usize, "{:#x}", |rng, pools| {
        let guess = 0x20_0000 + rng.below(64) * PAGE_SIZE_4K;
        mix(rng, |r| *r.choose(&pools.objects), &[0, 1, 0xdead_b000, guess])
    };
    /// A descriptor slot: below 3; the last, one past it, overflowing.
    Slot: usize, "{}", |rng, _pools| {
        mix(rng, |r| r.below(3), &[MAX_ENDPOINT_SLOTS - 1, MAX_ENDPOINT_SLOTS, usize::MAX])
    };
    /// An IOMMU domain id: below 2; garbage.
    Iommu: u32, "{}", |rng, _pools| mix(rng, |r| r.below(2) as u32, &[u32::MAX]);
    /// A device id: below 8 (the block device among them); garbage.
    Device: u16, "{}", |rng, _pools| mix(rng, |r| r.below(8) as u16, &[u16::MAX]);
    /// A device-visible page: one of 8; unaligned, non-canonical, top.
    Iova: usize, "{:#x}", |rng, _pools| {
        mix(rng, |r| 0x10_0000 + r.below(8) * PAGE_SIZE_4K, &[0x10_0123, NON_CANONICAL, usize::MAX])
    };
    /// A scheduling weight: below 5; garbage.
    Weight: u32, "{}", |rng, _pools| mix(rng, |r| r.below(5) as u32, &[u32::MAX]);
}

/// A yes/no flag, written `0` or `1`.
pub struct Flag;

impl ArgDomain<bool> for Flag {
    fn sample(rng: &mut XorShift64Star, _pools: &Pools) -> bool {
        rng.chance(1, 2)
    }
    fn write(v: &bool) -> String {
        u8::from(*v).to_string()
    }
    fn read(word: &str) -> Option<bool> {
        (word == "0" || word == "1").then_some(word == "1")
    }
}

/// Comma-separated words, `-` for none.
fn list<T>(items: &[T], word: impl Fn(&T) -> String) -> String {
    let words: Vec<String> = items.iter().map(word).collect();
    if words.is_empty() {
        return "-".into();
    }
    words.join(",")
}

/// An IPC payload: one random word, or four. Written comma-separated,
/// trailing zeros dropped.
pub struct Scalars;

impl ArgDomain<[u64; 4]> for Scalars {
    fn sample(rng: &mut XorShift64Star, _pools: &Pools) -> [u64; 4] {
        let n = if rng.chance(3, 4) { 1 } else { 4 };
        std::array::from_fn(|i| if i < n { rng.next_u64() } else { 0 })
    }
    fn write(v: &[u64; 4]) -> String {
        list(
            &v[..v.iter().rposition(|&x| x != 0).map_or(1, |i| i + 1)],
            u64::to_string,
        )
    }
    fn read(word: &str) -> Option<[u64; 4]> {
        let mut v = [0; 4];
        for (i, w) in word.split(',').enumerate() {
            *v.get_mut(i)? = w.parse().ok()?;
        }
        Some(v)
    }
}

/// An optional field drawn from `D` half the time; `-` when absent.
pub struct Maybe<D>(std::marker::PhantomData<D>);

impl<T, D: ArgDomain<T>> ArgDomain<Option<T>> for Maybe<D> {
    fn sample(rng: &mut XorShift64Star, pools: &Pools) -> Option<T> {
        rng.chance(1, 2).then(|| D::sample(rng, pools))
    }
    fn write(v: &Option<T>) -> String {
        v.as_ref().map_or_else(|| "-".into(), D::write)
    }
    fn read(word: &str) -> Option<Option<T>> {
        match word {
            "-" => Some(None),
            w => D::read(w).map(Some),
        }
    }
}

/// CPUs handed to a child container: none half the time, else one CPU
/// of the machine (owned or not, idle or busy), one out of range, or
/// every CPU.
pub struct Cpus;

impl ArgDomain<Vec<CpuId>> for Cpus {
    fn sample(rng: &mut XorShift64Star, pools: &Pools) -> Vec<CpuId> {
        match rng.below(8) {
            0..4 => vec![],
            4..7 => vec![rng.below(pools.ncpus)],
            7 if rng.chance(1, 2) => vec![pools.ncpus],
            _ => (0..pools.ncpus).collect(),
        }
    }
    fn write(v: &Vec<CpuId>) -> String {
        list(v, CpuId::to_string)
    }
    fn read(word: &str) -> Option<Vec<CpuId>> {
        match word {
            "-" => Some(vec![]),
            w => w.split(',').map(num).collect(),
        }
    }
}

/// Block submissions: 1 to 3 entries with random cookies, blocks and
/// [`Iova`]s; none, or one past the submission queue's capacity. A bare
/// count `n` in a corpus line is the batch of entries `i < n` with cookie
/// and block `i`, the `i`-th IOVA page and a write on even `i`; any other
/// batch is written as `cookie:iova:lba:write` entries.
pub struct BlkOps;

fn counted_blk_ops(n: usize) -> Vec<BlkOp> {
    let op = |i: usize| BlkOp {
        cookie: i as u64,
        iova: 0x10_0000 + i * PAGE_SIZE_4K,
        lba: i as u64,
        write: i.is_multiple_of(2),
    };
    (0..n).map(op).collect()
}

impl ArgDomain<Vec<BlkOp>> for BlkOps {
    fn sample(rng: &mut XorShift64Star, pools: &Pools) -> Vec<BlkOp> {
        let n = mix(rng, |r| r.range(1, 4), &[0, BLK_SQ_CAPACITY + 1]);
        let mut op = |i| BlkOp {
            cookie: rng.next_u64() % 8 + i as u64,
            iova: Iova::sample(rng, pools),
            lba: rng.next_u64() % 1024,
            write: rng.chance(1, 2),
        };
        (0..n).map(&mut op).collect()
    }
    fn write(v: &Vec<BlkOp>) -> String {
        if *v == counted_blk_ops(v.len()) {
            return v.len().to_string();
        }
        list(v, |op| {
            let w = u8::from(op.write);
            format!("{}:{:#x}:{}:{w}", op.cookie, op.iova, op.lba)
        })
    }
    fn read(word: &str) -> Option<Vec<BlkOp>> {
        if !word.contains(':') {
            return Some(counted_blk_ops(num(word)?));
        }
        let op = |entry: &str| {
            let mut f = entry.split(':');
            Some(BlkOp {
                cookie: f.next()?.parse().ok()?,
                iova: num(f.next()?)?,
                lba: f.next()?.parse().ok()?,
                write: Flag::read(f.next()?)?,
            })
        };
        word.split(',').map(op).collect()
    }
}
