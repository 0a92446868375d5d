//! System events and stack frames — the record types ETW would emit.

use crate::addr::Va;
use std::borrow::Borrow;
use std::fmt;
use std::hash::Hasher;
use std::ops::Deref;
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

/// An immutable module or function name, shared by every frame that
/// carries it.
///
/// A log names a few hundred distinct symbols across a hundred thousand
/// frames; the parser allocates each distinct name once and every frame
/// holds a reference-counted handle to it, so cloning or dropping a frame
/// never touches the allocator. Equality, ordering and hashing are by
/// content, exactly as for the `String` this replaces; [`Name::ptr_eq`]
/// tells whether two handles share one allocation.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(Arc<str>);

impl Name {
    /// The name as a string slice.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Whether both handles point at one allocation.
    #[must_use]
    pub fn ptr_eq(a: &Name, b: &Name) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        Name(Arc::from(s))
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(Arc::from(s))
    }
}

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

/// One stack-walk frame: the module, symbol and return address the walker
/// resolved.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StackFrame {
    /// Module name, e.g. `"vim"`, `"ntdll"`.
    pub module: Name,
    /// Function (symbol) name within the module.
    pub function: Name,
    /// Resolved virtual address of the frame.
    pub addr: Va,
    /// Whether the frame belongs to the application image itself (as
    /// opposed to a shared library or the kernel). ETW knows this from the
    /// image-load rundown; we carry it explicitly.
    pub in_app_image: bool,
}

impl StackFrame {
    /// Convenience constructor.
    #[must_use]
    pub fn new(
        module: impl Into<Name>,
        function: impl Into<Name>,
        addr: Va,
        in_app_image: bool,
    ) -> Self {
        StackFrame { module: module.into(), function: function.into(), addr, in_app_image }
    }

    /// `module!function` notation used in raw logs.
    #[must_use]
    pub fn symbol(&self) -> String {
        format!("{}!{}", self.module, self.function)
    }
}

impl fmt::Display for StackFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}!{}", self.addr, self.module, self.function)
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
        assert_eq!(ev.app_frames().next().unwrap().function, "main");
    }
}
