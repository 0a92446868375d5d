//! System events and stack frames — the record types ETW would emit.

use crate::addr::Va;
use std::fmt;
use std::hash::Hasher;
use std::sync::Arc;

/// Kinds of system events traced by the simulated logging engine.
///
/// Mirrors the event classes ETW exposes with stack walking enabled
/// (process/thread lifecycle, image load, system calls, file, registry and
/// network operations — Section IV of the paper). The discriminant doubles
/// as the paper's integer-mapped `Event_Type` feature.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u32)]
pub enum EventType {
    ProcessCreate = 0,
    ProcessExit = 1,
    ThreadCreate = 2,
    ThreadExit = 3,
    ImageLoad = 4,
    ImageUnload = 5,
    SysCallEnter = 6,
    SysCallExit = 7,
    FileCreate = 8,
    FileRead = 9,
    FileWrite = 10,
    FileClose = 11,
    RegistryOpen = 12,
    RegistryRead = 13,
    RegistryWrite = 14,
    TcpConnect = 15,
    TcpSend = 16,
    TcpRecv = 17,
    TcpDisconnect = 18,
    UdpSend = 19,
    DnsQuery = 20,
    VirtualAlloc = 21,
    VirtualProtect = 22,
    PageFault = 23,
    WindowCreate = 24,
    DialogOpen = 25,
    MessageDispatch = 26,
    CryptoOp = 27,
    DiskRead = 28,
    DiskWrite = 29,
}

impl EventType {
    /// All event types, in discriminant order.
    pub const ALL: [EventType; 30] = [
        EventType::ProcessCreate,
        EventType::ProcessExit,
        EventType::ThreadCreate,
        EventType::ThreadExit,
        EventType::ImageLoad,
        EventType::ImageUnload,
        EventType::SysCallEnter,
        EventType::SysCallExit,
        EventType::FileCreate,
        EventType::FileRead,
        EventType::FileWrite,
        EventType::FileClose,
        EventType::RegistryOpen,
        EventType::RegistryRead,
        EventType::RegistryWrite,
        EventType::TcpConnect,
        EventType::TcpSend,
        EventType::TcpRecv,
        EventType::TcpDisconnect,
        EventType::UdpSend,
        EventType::DnsQuery,
        EventType::VirtualAlloc,
        EventType::VirtualProtect,
        EventType::PageFault,
        EventType::WindowCreate,
        EventType::DialogOpen,
        EventType::MessageDispatch,
        EventType::CryptoOp,
        EventType::DiskRead,
        EventType::DiskWrite,
    ];

    /// The paper's integer mapping of `Event_Type`.
    #[must_use]
    pub fn as_u32(self) -> u32 {
        self as u32
    }

    /// Parses the canonical name produced by [`fmt::Display`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<EventType> {
        EventType::ALL.iter().copied().find(|e| e.name() == name)
    }

    /// Canonical name as written in raw logs, e.g. `"FileWrite"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            EventType::ProcessCreate => "ProcessCreate",
            EventType::ProcessExit => "ProcessExit",
            EventType::ThreadCreate => "ThreadCreate",
            EventType::ThreadExit => "ThreadExit",
            EventType::ImageLoad => "ImageLoad",
            EventType::ImageUnload => "ImageUnload",
            EventType::SysCallEnter => "SysCallEnter",
            EventType::SysCallExit => "SysCallExit",
            EventType::FileCreate => "FileCreate",
            EventType::FileRead => "FileRead",
            EventType::FileWrite => "FileWrite",
            EventType::FileClose => "FileClose",
            EventType::RegistryOpen => "RegistryOpen",
            EventType::RegistryRead => "RegistryRead",
            EventType::RegistryWrite => "RegistryWrite",
            EventType::TcpConnect => "TcpConnect",
            EventType::TcpSend => "TcpSend",
            EventType::TcpRecv => "TcpRecv",
            EventType::TcpDisconnect => "TcpDisconnect",
            EventType::UdpSend => "UdpSend",
            EventType::DnsQuery => "DnsQuery",
            EventType::VirtualAlloc => "VirtualAlloc",
            EventType::VirtualProtect => "VirtualProtect",
            EventType::PageFault => "PageFault",
            EventType::WindowCreate => "WindowCreate",
            EventType::DialogOpen => "DialogOpen",
            EventType::MessageDispatch => "MessageDispatch",
            EventType::CryptoOp => "CryptoOp",
            EventType::DiskRead => "DiskRead",
            EventType::DiskWrite => "DiskWrite",
        }
    }
}

impl fmt::Display for EventType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// An immutable name: a frame's `module!function` symbol, shared by every
/// frame that carries it.
///
/// A log names a few hundred distinct symbols across a hundred thousand
/// frames; the parser allocates each distinct symbol once and every frame
/// holds a reference-counted handle to it, so cloning or dropping a frame
/// never touches the allocator. Equality and hashing are by content,
/// exactly as for a `String`.
pub type Name = Arc<str>;

/// A multiply-rotate hash over 8-byte words for tables keyed by names.
/// Names are short and looked up once per stack frame, where SipHash
/// would cost more than the rest of the lookup. It does not resist chosen
/// collisions: a crafted input can make lookups into its own table slow,
/// never wrong.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameHasher(u64);

impl Hasher for NameHasher {
    fn write(&mut self, bytes: &[u8]) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.0 = (self.0.rotate_left(5) ^ u64::from_le_bytes(word)).wrapping_mul(K);
        }
        for &byte in chunks.remainder() {
            self.0 = (self.0.rotate_left(5) ^ u64::from(byte)).wrapping_mul(K);
        }
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The one split rule of a `module!function` symbol: the module is the
/// text before the first `!`, the function everything after it (which
/// may hold more `!`s). `None` when the symbol has no `!`. The log
/// parser and the wire decoder both split by it.
#[must_use]
pub fn split_symbol(symbol: &str) -> Option<(&str, &str)> {
    symbol.split_once('!')
}

/// One stack-walk frame: the `module!function` symbol and return address
/// the walker resolved.
///
/// The symbol is the frame's one name, shared by every frame that carries
/// it; the module and function are borrowed parts of it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StackFrame {
    /// `module!function`.
    symbol: Name,
    /// Byte length of the module, the part of `symbol` before the `!`
    /// that joins it to the function.
    module_len: u32,
    /// Resolved virtual address of the frame.
    pub addr: Va,
    /// Whether the frame belongs to the application image itself (as
    /// opposed to a shared library or the kernel). ETW knows this from the
    /// image-load rundown; we carry it explicitly.
    pub in_app_image: bool,
}

impl StackFrame {
    /// The frame of `module!function`, joining the two parts once.
    ///
    /// # Panics
    ///
    /// Panics if the module name is 4 GiB or longer.
    #[must_use]
    pub fn new(
        module: impl Into<Name>,
        function: impl Into<Name>,
        addr: Va,
        in_app_image: bool,
    ) -> Self {
        let (module, function) = (module.into(), function.into());
        let module_len = u32::try_from(module.len()).expect("module name shorter than 4 GiB");
        let symbol = Name::from(format!("{module}!{function}"));
        StackFrame { symbol, module_len, addr, in_app_image }
    }

    /// The frame of a `module!function` symbol, split by
    /// [`split_symbol`]. `None` when the symbol has no `!` or its module
    /// is 4 GiB or longer.
    #[must_use]
    pub fn from_symbol(symbol: impl Into<Name>, addr: Va, in_app_image: bool) -> Option<Self> {
        let symbol = symbol.into();
        let (module, _) = split_symbol(&symbol)?;
        let module_len = u32::try_from(module.len()).ok()?;
        Some(StackFrame { symbol, module_len, addr, in_app_image })
    }

    /// Module name, e.g. `"vim"`, `"ntdll"`.
    #[must_use]
    pub fn module(&self) -> &str {
        &self.symbol[..self.module_len as usize]
    }

    /// Function (symbol) name within the module.
    #[must_use]
    pub fn function(&self) -> &str {
        &self.symbol[self.module_len as usize + 1..]
    }

    /// `module!function` notation used in raw logs.
    #[must_use]
    pub fn symbol(&self) -> &str {
        &self.symbol
    }
}

impl fmt::Display for StackFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.addr, self.symbol)
    }
}

/// A single traced system event with its stack walk.
///
/// `frames` are stored in **caller order**: `frames[0]` is the outermost
/// application frame (e.g. `main`), the last frame is the innermost kernel
/// frame. The raw log writer reverses this into the innermost-first order a
/// real stack walker reports; the parser restores caller order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SysEvent {
    /// Monotone event sequence number within one log.
    pub num: u64,
    /// Event class.
    pub etype: EventType,
    /// Process id of the traced process.
    pub pid: u32,
    /// Thread id that triggered the event.
    pub tid: u32,
    /// Simulated timestamp (ticks since trace start).
    pub timestamp: u64,
    /// Stack walk, outermost (application entry) first.
    pub frames: Vec<StackFrame>,
    /// Ground-truth provenance of the event. Never used by the detection
    /// pipeline; only by evaluation code to compute confusion matrices.
    pub truth: Provenance,
}

/// Ground-truth origin of an event, for evaluation only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Provenance {
    /// Emitted by benign application code.
    Benign,
    /// Emitted by a malicious payload.
    Malicious,
}

impl SysEvent {
    /// Frames belonging to the application image, in caller order.
    pub fn app_frames(&self) -> impl Iterator<Item = &StackFrame> {
        self.frames.iter().filter(|f| f.in_app_image)
    }

    /// Frames belonging to shared libraries / kernel, in caller order.
    pub fn system_frames(&self) -> impl Iterator<Item = &StackFrame> {
        self.frames.iter().filter(|f| !f.in_app_image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_type_roundtrips_through_name() {
        for e in EventType::ALL {
            assert_eq!(EventType::from_name(e.name()), Some(e));
        }
        assert_eq!(EventType::from_name("NotAType"), None);
    }

    #[test]
    fn event_type_discriminants_are_dense_and_unique() {
        for (i, e) in EventType::ALL.iter().enumerate() {
            assert_eq!(e.as_u32() as usize, i);
        }
    }

    #[test]
    fn frame_symbol_format() {
        let f = StackFrame::new("ntdll", "NtWriteFile", Va(0x7ff0), false);
        assert_eq!(f.symbol(), "ntdll!NtWriteFile");
        assert!(f.to_string().contains("ntdll!NtWriteFile"));
    }

    #[test]
    fn frame_accessors_round_trip_the_joined_parts() {
        for (module, function) in
            [("ntdll", "NtWriteFile"), ("", "anon_0x7f"), ("vim", "a!b!c"), ("", ""), ("m", "")]
        {
            let f = StackFrame::new(module, function, Va(0x7ff0), true);
            assert_eq!((f.module(), f.function()), (module, function));
            assert_eq!(f.symbol(), format!("{module}!{function}"));
            // The split rule reads the same parts back from the symbol:
            // a module holds no `!`, a function may.
            assert_eq!(split_symbol(f.symbol()), Some((module, function)));
            assert_eq!(StackFrame::from_symbol(f.symbol(), f.addr, true), Some(f));
        }
        assert_eq!(split_symbol("no_bang"), None);
        assert_eq!(StackFrame::from_symbol("no_bang", Va(1), false), None);
        // One shared name, an address and a flag.
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<StackFrame>(), 32);
    }

    #[test]
    fn app_and_system_frame_partition() {
        let ev = SysEvent {
            num: 1,
            etype: EventType::FileWrite,
            pid: 4,
            tid: 8,
            timestamp: 100,
            frames: vec![
                StackFrame::new("vim", "main", Va(0x400000), true),
                StackFrame::new("vim", "buf_write", Va(0x401000), true),
                StackFrame::new("kernel32", "WriteFile", Va(0x7ff1), false),
                StackFrame::new("ntdll", "NtWriteFile", Va(0x7ff2), false),
            ],
            truth: Provenance::Benign,
        };
        assert_eq!(ev.app_frames().count(), 2);
        assert_eq!(ev.system_frames().count(), 2);
        assert_eq!(ev.app_frames().next().unwrap().function(), "main");
    }
}
