//! Typed kernel events and their discriminants.

/// Declares a dense discriminant enum from one listing: the variants in
/// discriminant order with their stable display names, the `ALL` array,
/// the `$count` constant and `index()`/`name()`.
macro_rules! dense_kinds {
    (
        $(#[doc = $doc:literal])*
        $Kind:ident, $count:ident { $($Variant:ident => $name:literal,)* }
    ) => {
        $(#[doc = $doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(usize)]
        pub enum $Kind {
            $($Variant,)*
        }

        #[doc = concat!("Number of [`", stringify!($Kind), "`]s (array dimension).")]
        pub const $count: usize = [$($name),*].len();

        impl $Kind {
            /// All kinds, in discriminant order.
            pub const ALL: [$Kind; $count] = [$($Kind::$Variant),*];

            /// Dense index for per-kind arrays.
            pub fn index(self) -> usize {
                self as usize
            }

            /// Stable display name.
            pub fn name(self) -> &'static str {
                match self {
                    $($Kind::$Variant => $name,)*
                }
            }
        }
    };
}

dense_kinds! {
    /// Every system call the kernel dispatches, as a dense discriminant.
    ///
    /// Lives here (below the kernel crate) so the tracer can key histograms
    /// and counters without depending on `SyscallArgs`; the kernel maps its
    /// argument enum onto this one at the dispatcher.
    SyscallKind, NUM_SYSCALL_KINDS {
        Mmap => "mmap",
        Munmap => "munmap",
        NewContainer => "new_container",
        TerminateContainer => "terminate_container",
        NewProcess => "new_process",
        NewChildProcess => "new_child_process",
        Exit => "exit",
        TerminateProcess => "terminate_process",
        NewThread => "new_thread",
        NewEndpoint => "new_endpoint",
        Send => "send",
        Recv => "recv",
        Poll => "poll",
        Call => "call",
        Reply => "reply",
        TakeMsg => "take_msg",
        MapGranted => "map_granted",
        DropGrant => "drop_grant",
        MmapHuge2M => "mmap_huge_2m",
        MunmapHuge2M => "munmap_huge_2m",
        IommuCreateDomain => "iommu_create_domain",
        IommuAttach => "iommu_attach",
        IommuDetach => "iommu_detach",
        IommuMap => "iommu_map",
        IommuUnmap => "iommu_unmap",
        Yield => "yield",
        TraceSnapshot => "trace_snapshot",
        ReplyRecv => "reply_recv",
        BlkSubmitBatch => "blk_submit_batch",
        BlkReapBatch => "blk_reap_batch",
        Getpid => "getpid",
        ThreadLookup => "thread_lookup",
        DescriptorResolve => "descriptor_resolve",
        VmResolve => "vm_resolve",
        SchedSetWeight => "sched_set_weight",
        SchedThrottle => "sched_throttle",
    }
}

/// The class of a syscall return value, mirroring `SyscallError` plus
/// `Ok` (the tracer records the class, not the payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReturnClass {
    /// Success.
    Ok,
    /// Out of physical memory.
    NoMem,
    /// Container quota exhausted.
    Quota,
    /// A fixed-capacity structure is full.
    Capacity,
    /// Referenced object does not exist.
    NotFound,
    /// Malformed arguments.
    Invalid,
    /// Permission denied.
    Denied,
    /// Object in the wrong state.
    WrongState,
    /// Address fault.
    Fault,
}

impl ReturnClass {
    /// `true` for the success class.
    pub fn is_ok(self) -> bool {
        self == ReturnClass::Ok
    }
}

/// Which simulated device emitted a driver batch event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceKind {
    /// The ixgbe 10 GbE NIC (§6.3).
    Ixgbe,
    /// The NVMe SSD (§6.4).
    Nvme,
}

/// One traced kernel transition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelEvent {
    /// A system call entered the dispatcher on the attributed CPU.
    SyscallEnter {
        /// Which syscall.
        kind: SyscallKind,
    },
    /// The dispatcher returned.
    SyscallExit {
        /// Which syscall.
        kind: SyscallKind,
        /// Success or error class of the return.
        class: ReturnClass,
        /// Modeled cycles between enter and exit (from `hw::cycles`).
        cycles: u64,
    },
    /// The scheduler changed the running thread on a CPU.
    ContextSwitch {
        /// The CPU whose `current` changed.
        cpu: usize,
        /// Previously running thread (`None` = idle).
        from: Option<usize>,
        /// Newly running thread (`None` = idle).
        to: Option<usize>,
    },
    /// A message was sent over an endpoint.
    EndpointSend {
        /// Endpoint object page.
        endpoint: usize,
        /// `true` when a waiting receiver took the message immediately.
        rendezvous: bool,
    },
    /// A message was received from an endpoint.
    EndpointRecv {
        /// Endpoint object page.
        endpoint: usize,
        /// `true` when a queued sender's message was already waiting.
        rendezvous: bool,
    },
    /// Frames left the allocator's free state.
    PageAlloc {
        /// 4 KiB frames allocated (512 for a 2 MiB page, …).
        frames: u64,
        /// Signed change to the owner's `page_closure` size.
        closure_delta: i64,
    },
    /// Frames returned to the allocator's free state.
    PageFree {
        /// 4 KiB frames freed.
        frames: u64,
        /// Signed change to the owner's `page_closure` size.
        closure_delta: i64,
    },
    /// A page-table leaf was written.
    PtMap {
        /// Virtual address of the new mapping.
        va: usize,
        /// 4 KiB frames covered by the leaf.
        frames: u64,
    },
    /// A page-table leaf was cleared.
    PtUnmap {
        /// Virtual address of the removed mapping.
        va: usize,
        /// 4 KiB frames the leaf covered.
        frames: u64,
    },
    /// A driver received a batch of completions/packets.
    DriverRx {
        /// Which device.
        device: DeviceKind,
        /// Items in the batch.
        batch: u64,
    },
    /// A driver submitted a batch of descriptors/commands.
    DriverTx {
        /// Which device.
        device: DeviceKind,
        /// Items in the batch.
        batch: u64,
    },
}

dense_kinds! {
    /// Dense discriminant of [`KernelEvent`] for counting.
    EventKind, NUM_EVENT_KINDS {
        SyscallEnter => "syscall_enter",
        SyscallExit => "syscall_exit",
        ContextSwitch => "context_switch",
        EndpointSend => "endpoint_send",
        EndpointRecv => "endpoint_recv",
        PageAlloc => "page_alloc",
        PageFree => "page_free",
        PtMap => "pt_map",
        PtUnmap => "pt_unmap",
        DriverRx => "driver_rx",
        DriverTx => "driver_tx",
    }
}

impl KernelEvent {
    /// The event's discriminant.
    pub fn kind(&self) -> EventKind {
        match self {
            KernelEvent::SyscallEnter { .. } => EventKind::SyscallEnter,
            KernelEvent::SyscallExit { .. } => EventKind::SyscallExit,
            KernelEvent::ContextSwitch { .. } => EventKind::ContextSwitch,
            KernelEvent::EndpointSend { .. } => EventKind::EndpointSend,
            KernelEvent::EndpointRecv { .. } => EventKind::EndpointRecv,
            KernelEvent::PageAlloc { .. } => EventKind::PageAlloc,
            KernelEvent::PageFree { .. } => EventKind::PageFree,
            KernelEvent::PtMap { .. } => EventKind::PtMap,
            KernelEvent::PtUnmap { .. } => EventKind::PtUnmap,
            KernelEvent::DriverRx { .. } => EventKind::DriverRx,
            KernelEvent::DriverTx { .. } => EventKind::DriverTx,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn syscall_kind_indices_are_dense() {
        for (i, k) in SyscallKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn event_kind_indices_are_dense() {
        for (i, k) in EventKind::ALL.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = SyscallKind::ALL.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), NUM_SYSCALL_KINDS);
    }
}
