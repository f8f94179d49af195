//! User-space device drivers and device models (§6.5 of the paper).
//!
//! In Atmosphere, drivers run in user space — either statically linked
//! into the application (like DPDK/SPDK) or as separate processes that
//! clients reach over shared-memory rings and IPC endpoints. This crate
//! provides:
//!
//! * [`pkt`] — packets and the pktgen-style line-rate traffic source;
//! * [`ring`] — the single-producer/single-consumer shared-memory
//!   descriptor ring used between applications and driver processes;
//! * [`slotpool`] — the grant-pinned DMA slot pool behind both zero-copy
//!   datapaths (`PktPool`: 2 KiB packet slots, `BlkPool`: 4 KiB block
//!   slots) and its affine slot handles;
//! * [`ixgbe`] — a model of the Intel 82599 10 GbE NIC (descriptor rings,
//!   64-byte-frame line rate of 14.2 Mpps as measured in the paper) and
//!   the polling driver;
//! * [`nvme`] — a model of the Intel P3700 NVMe SSD (submission /
//!   completion queues, measured-class latency and peak IOPS) and the
//!   polling driver;
//! * [`deploy`] — the three deployment scenarios the paper evaluates:
//!   `atmo-driver` (linked), `atmo-c2` (driver on its own core, shared
//!   ring), and `atmo-c1-bN` (driver process on the same core, invoked
//!   through an IPC endpoint per batch of N requests).
//!
//! Device *behaviour* is modeled (descriptor protocols, capacity
//! ceilings); driver and application code executes for real against the
//! models, charging the calibrated per-operation cycle costs, so
//! throughput emerges from execution rather than being asserted.

pub mod deploy;
pub mod ixgbe;
pub mod nvme;
pub mod pkt;
pub mod ring;
pub mod slotpool;
pub mod steer;

pub use deploy::{run_nvme_scenario, run_rx_tx_scenario, Deployment, NetScenarioReport};
pub use ixgbe::{IxgbeDevice, IxgbeDriver, IXGBE_LINE_RATE_64B_PPS};
pub use nvme::{IoKind, NvmeDevice, NvmeDriver, NvmeSpec, NvmeZcQueue};
pub use pkt::{flow_key_for_seq, seq_of, write_udp64, Packet, PktGen, UDP64_LEN};
pub use ring::SpscRing;
pub use slotpool::{
    BlkBuf, BlkPool, PktBuf, PktPool, SlotBuf, SlotPool, BLK_SLOT_SIZE, PKT_SLOT_SIZE,
    SLOTS_PER_PAGE,
};
pub use steer::{queue_for_key, queue_for_seq, RssSteer, RSS_FLOW_PERIOD};

/// Per-operation driver costs (cycles on the c220g5), calibrated so the
/// measured configurations land on the paper's Figure 4/5 numbers.
#[derive(Clone, Copy, Debug)]
pub struct DriverCosts {
    /// ixgbe RX descriptor processing per packet.
    pub rx_desc: u64,
    /// ixgbe TX descriptor processing per packet.
    pub tx_desc: u64,
    /// Doorbell write + head/tail sync, once per batch per direction.
    pub doorbell: u64,
    /// NVMe submission+completion CPU work per I/O (SPDK-class polling).
    pub nvme_io: u64,
    /// Extra per-write driver work in the Atmosphere NVMe driver
    /// (per-write doorbell, §6.5.2's 10% write overhead).
    pub nvme_write_extra: u64,
    /// Zero-copy RX descriptor processing per packet: the descriptor
    /// names a pool slot, so there is no per-packet allocation or
    /// payload copy — only the descriptor read and handle creation.
    /// Strictly cheaper than [`DriverCosts::rx_desc`].
    pub rx_desc_zc: u64,
    /// Zero-copy TX descriptor processing per packet (descriptor write
    /// naming the slot; no payload copy). Strictly cheaper than
    /// [`DriverCosts::tx_desc`].
    pub tx_desc_zc: u64,
    /// Amortized descriptor-ring refill, once per zero-copy RX batch
    /// (posting the freed slots back to the NIC in one pass — the
    /// walk-cache treatment applied to the descriptor ring).
    pub refill_batch: u64,
    /// Zero-copy NVMe submission-queue entry per I/O: the SQE names a
    /// pinned pool slot's IOVA, so there is no bounce-buffer allocation
    /// or payload copy — only the 64-byte descriptor write. Strictly
    /// cheaper than [`DriverCosts::nvme_io`].
    pub sq_desc_zc: u64,
    /// Zero-copy NVMe completion-queue entry per I/O (CQE read + handle
    /// return; no payload copy back). Strictly cheaper than
    /// [`DriverCosts::nvme_io`].
    pub cq_desc_zc: u64,
}

impl DriverCosts {
    /// Calibrated values (see Figure 4/5 reproduction notes in
    /// EXPERIMENTS.md).
    pub const fn atmosphere() -> Self {
        DriverCosts {
            rx_desc: 55,
            tx_desc: 48,
            doorbell: 90,
            nvme_io: 500,
            nvme_write_extra: 900,
            rx_desc_zc: 22,
            tx_desc_zc: 18,
            refill_batch: 40,
            sq_desc_zc: 120,
            cq_desc_zc: 80,
        }
    }
}
