//! Catalog of Windows-like shared libraries, kernel modules and API
//! frame-chains.
//!
//! LEAPS extracts its statistical features from the *system stack trace*:
//! the shared-library and kernel frames below the application's own code.
//! This module defines a fixed catalog of libraries (`kernel32`, `ntdll`,
//! `ws2_32`, …) and ~50 APIs, each with the frame chain a stack walker
//! would observe when the API reaches its deepest traced point (e.g.
//! `ws2_32!send → mswsock!WSPSend → ntdll!NtDeviceIoControlFile →
//! ntoskrnl!NtDeviceIoControlFile → afd!AfdSend → tcpip!TcpSendData`).

use crate::addr::{AddressRange, Va};
use crate::event::{EventType, NameHasher, StackFrame};
use crate::module::{FunctionSym, ModuleImage};
use std::collections::{BTreeMap, HashSet};
use std::hash::BuildHasherDefault;
use std::sync::OnceLock;

/// Identifier of an API in the catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ApiId(pub usize);

/// Static description of a shared library or kernel module.
#[derive(Debug, Clone, Copy)]
struct LibSpec {
    name: &'static str,
    kernel: bool,
}

const LIBS: &[LibSpec] = &[
    LibSpec { name: "ntdll", kernel: false },
    LibSpec { name: "kernel32", kernel: false },
    LibSpec { name: "kernelbase", kernel: false },
    LibSpec { name: "user32", kernel: false },
    LibSpec { name: "win32u", kernel: false },
    LibSpec { name: "gdi32", kernel: false },
    LibSpec { name: "advapi32", kernel: false },
    LibSpec { name: "ws2_32", kernel: false },
    LibSpec { name: "mswsock", kernel: false },
    LibSpec { name: "dnsapi", kernel: false },
    LibSpec { name: "wininet", kernel: false },
    LibSpec { name: "secur32", kernel: false },
    LibSpec { name: "bcrypt", kernel: false },
    LibSpec { name: "crypt32", kernel: false },
    LibSpec { name: "msvcrt", kernel: false },
    LibSpec { name: "shell32", kernel: false },
    LibSpec { name: "ntoskrnl", kernel: true },
    LibSpec { name: "win32k", kernel: true },
    LibSpec { name: "afd", kernel: true },
    LibSpec { name: "tcpip", kernel: true },
    LibSpec { name: "fltmgr", kernel: true },
    LibSpec { name: "ksecdd", kernel: true },
    LibSpec { name: "condrv", kernel: true },
];

/// Static API description: name, emitted event type and frame chain
/// (outermost user-mode frame first, innermost kernel frame last).
struct ApiSpec {
    name: &'static str,
    event: EventType,
    chain: &'static [(&'static str, &'static str)],
}

macro_rules! api {
    ($name:literal, $event:ident, [$(($lib:literal, $func:literal)),+ $(,)?]) => {
        ApiSpec {
            name: $name,
            event: EventType::$event,
            chain: &[$(($lib, $func)),+],
        }
    };
}

#[rustfmt::skip]
const APIS: &[ApiSpec] = &[
    // --- file I/O -------------------------------------------------------
    api!("CreateFileW", FileCreate, [
        ("kernel32", "CreateFileW"), ("kernelbase", "CreateFileW"),
        ("ntdll", "NtCreateFile"), ("ntoskrnl", "NtCreateFile"),
        ("ntoskrnl", "IopCreateFile"), ("fltmgr", "FltpCreate")]),
    api!("ReadFile", FileRead, [
        ("kernel32", "ReadFile"), ("kernelbase", "ReadFile"),
        ("ntdll", "NtReadFile"), ("ntoskrnl", "NtReadFile"),
        ("ntoskrnl", "IopSynchronousServiceTail")]),
    api!("WriteFile", FileWrite, [
        ("kernel32", "WriteFile"), ("kernelbase", "WriteFile"),
        ("ntdll", "NtWriteFile"), ("ntoskrnl", "NtWriteFile"),
        ("ntoskrnl", "IopSynchronousServiceTail")]),
    api!("CloseHandle", FileClose, [
        ("kernel32", "CloseHandle"), ("ntdll", "NtClose"),
        ("ntoskrnl", "NtClose"), ("ntoskrnl", "ObpCloseHandle")]),
    api!("FlushFileBuffers", DiskWrite, [
        ("kernel32", "FlushFileBuffers"), ("ntdll", "NtFlushBuffersFile"),
        ("ntoskrnl", "NtFlushBuffersFile"), ("ntoskrnl", "IopSynchronousServiceTail"),
        ("fltmgr", "FltpDispatch")]),
    api!("GetFileAttributesW", SysCallEnter, [
        ("kernel32", "GetFileAttributesW"), ("ntdll", "NtQueryAttributesFile"),
        ("ntoskrnl", "NtQueryAttributesFile"), ("fltmgr", "FltpCreate")]),
    api!("MapViewOfFile", PageFault, [
        ("kernel32", "MapViewOfFile"), ("ntdll", "NtMapViewOfSection"),
        ("ntoskrnl", "NtMapViewOfSection"), ("ntoskrnl", "MiMapViewOfSection")]),
    api!("fopen", FileCreate, [
        ("msvcrt", "fopen"), ("kernel32", "CreateFileW"),
        ("ntdll", "NtCreateFile"), ("ntoskrnl", "NtCreateFile"),
        ("ntoskrnl", "IopCreateFile"), ("fltmgr", "FltpCreate")]),
    api!("fread", FileRead, [
        ("msvcrt", "fread"), ("kernel32", "ReadFile"),
        ("ntdll", "NtReadFile"), ("ntoskrnl", "NtReadFile"),
        ("ntoskrnl", "IopSynchronousServiceTail")]),
    api!("fwrite", FileWrite, [
        ("msvcrt", "fwrite"), ("kernel32", "WriteFile"),
        ("ntdll", "NtWriteFile"), ("ntoskrnl", "NtWriteFile"),
        ("ntoskrnl", "IopSynchronousServiceTail")]),
    api!("WriteConsoleW", FileWrite, [
        ("kernel32", "WriteConsoleW"), ("ntdll", "NtDeviceIoControlFile"),
        ("ntoskrnl", "NtDeviceIoControlFile"), ("condrv", "CdpDispatch")]),
    api!("ReadConsoleW", FileRead, [
        ("kernel32", "ReadConsoleW"), ("ntdll", "NtDeviceIoControlFile"),
        ("ntoskrnl", "NtDeviceIoControlFile"), ("condrv", "CdpDispatch")]),
    // --- registry -------------------------------------------------------
    api!("RegOpenKeyExW", RegistryOpen, [
        ("advapi32", "RegOpenKeyExW"), ("kernelbase", "RegOpenKeyExInternalW"),
        ("ntdll", "NtOpenKeyEx"), ("ntoskrnl", "NtOpenKeyEx"),
        ("ntoskrnl", "CmOpenKey")]),
    api!("RegQueryValueExW", RegistryRead, [
        ("advapi32", "RegQueryValueExW"), ("ntdll", "NtQueryValueKey"),
        ("ntoskrnl", "NtQueryValueKey"), ("ntoskrnl", "CmQueryValueKey")]),
    api!("RegSetValueExW", RegistryWrite, [
        ("advapi32", "RegSetValueExW"), ("ntdll", "NtSetValueKey"),
        ("ntoskrnl", "NtSetValueKey"), ("ntoskrnl", "CmSetValueKey")]),
    // --- winsock --------------------------------------------------------
    api!("socket", SysCallEnter, [
        ("ws2_32", "socket"), ("mswsock", "WSPSocket"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("afd", "AfdDispatchDeviceControl")]),
    api!("connect", TcpConnect, [
        ("ws2_32", "connect"), ("mswsock", "WSPConnect"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("afd", "AfdConnect"), ("tcpip", "TcpCreateAndConnectTcb")]),
    api!("send", TcpSend, [
        ("ws2_32", "send"), ("mswsock", "WSPSend"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("afd", "AfdSend"), ("tcpip", "TcpSendData")]),
    api!("recv", TcpRecv, [
        ("ws2_32", "recv"), ("mswsock", "WSPRecv"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("afd", "AfdReceive"), ("tcpip", "TcpReceive")]),
    api!("closesocket", TcpDisconnect, [
        ("ws2_32", "closesocket"), ("mswsock", "WSPCloseSocket"),
        ("ntdll", "NtClose"), ("ntoskrnl", "NtClose"),
        ("afd", "AfdCleanup"), ("tcpip", "TcpDisconnectTcb")]),
    api!("WSASend", TcpSend, [
        ("ws2_32", "WSASend"), ("mswsock", "WSPSend"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("afd", "AfdSend"), ("tcpip", "TcpSendData")]),
    api!("WSARecv", TcpRecv, [
        ("ws2_32", "WSARecv"), ("mswsock", "WSPRecv"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("afd", "AfdReceive"), ("tcpip", "TcpReceive")]),
    api!("sendto", UdpSend, [
        ("ws2_32", "sendto"), ("mswsock", "WSPSendTo"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("afd", "AfdSendDatagram"), ("tcpip", "UdpSendMessages")]),
    api!("getaddrinfo", DnsQuery, [
        ("ws2_32", "getaddrinfo"), ("dnsapi", "DnsQuery_W"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("afd", "AfdSendDatagram"), ("tcpip", "UdpSendMessages")]),
    // --- wininet / HTTP -------------------------------------------------
    api!("InternetOpenW", SysCallEnter, [
        ("wininet", "InternetOpenW"), ("ntdll", "NtAlpcSendWaitReceivePort"),
        ("ntoskrnl", "NtAlpcSendWaitReceivePort")]),
    api!("InternetConnectW", TcpConnect, [
        ("wininet", "InternetConnectW"), ("ws2_32", "connect"),
        ("mswsock", "WSPConnect"), ("ntdll", "NtDeviceIoControlFile"),
        ("ntoskrnl", "NtDeviceIoControlFile"), ("afd", "AfdConnect"),
        ("tcpip", "TcpCreateAndConnectTcb")]),
    api!("HttpSendRequestW", TcpSend, [
        ("wininet", "HttpSendRequestW"), ("ws2_32", "send"),
        ("mswsock", "WSPSend"), ("ntdll", "NtDeviceIoControlFile"),
        ("ntoskrnl", "NtDeviceIoControlFile"), ("afd", "AfdSend"),
        ("tcpip", "TcpSendData")]),
    api!("InternetReadFile", TcpRecv, [
        ("wininet", "InternetReadFile"), ("ws2_32", "recv"),
        ("mswsock", "WSPRecv"), ("ntdll", "NtDeviceIoControlFile"),
        ("ntoskrnl", "NtDeviceIoControlFile"), ("afd", "AfdReceive"),
        ("tcpip", "TcpReceive")]),
    // --- TLS / crypto ----------------------------------------------------
    api!("EncryptMessage", CryptoOp, [
        ("secur32", "EncryptMessage"), ("bcrypt", "BCryptEncrypt"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("ksecdd", "KsecDispatch")]),
    api!("DecryptMessage", CryptoOp, [
        ("secur32", "DecryptMessage"), ("bcrypt", "BCryptDecrypt"),
        ("ntdll", "NtDeviceIoControlFile"), ("ntoskrnl", "NtDeviceIoControlFile"),
        ("ksecdd", "KsecDispatch")]),
    api!("AcquireCredentialsHandleW", CryptoOp, [
        ("secur32", "AcquireCredentialsHandleW"),
        ("ntdll", "NtAlpcSendWaitReceivePort"),
        ("ntoskrnl", "NtAlpcSendWaitReceivePort")]),
    api!("InitializeSecurityContextW", CryptoOp, [
        ("secur32", "InitializeSecurityContextW"), ("bcrypt", "BCryptSignHash"),
        ("ntdll", "NtAlpcSendWaitReceivePort"),
        ("ntoskrnl", "NtAlpcSendWaitReceivePort")]),
    api!("CryptProtectData", CryptoOp, [
        ("crypt32", "CryptProtectData"), ("ntdll", "NtAlpcSendWaitReceivePort"),
        ("ntoskrnl", "NtAlpcSendWaitReceivePort")]),
    // --- UI / GDI --------------------------------------------------------
    api!("CreateWindowExW", WindowCreate, [
        ("user32", "CreateWindowExW"), ("win32u", "NtUserCreateWindowEx"),
        ("win32k", "NtUserCreateWindowEx")]),
    api!("DialogBoxParamW", DialogOpen, [
        ("user32", "DialogBoxParamW"), ("user32", "InternalDialogBox"),
        ("win32u", "NtUserCreateWindowEx"), ("win32k", "NtUserCreateWindowEx")]),
    api!("GetMessageW", MessageDispatch, [
        ("user32", "GetMessageW"), ("win32u", "NtUserGetMessage"),
        ("win32k", "NtUserGetMessage")]),
    api!("DispatchMessageW", MessageDispatch, [
        ("user32", "DispatchMessageW"), ("win32u", "NtUserDispatchMessage"),
        ("win32k", "NtUserDispatchMessage")]),
    api!("TextOutW", SysCallEnter, [
        ("gdi32", "TextOutW"), ("win32u", "NtGdiExtTextOutW"),
        ("win32k", "NtGdiExtTextOutW")]),
    api!("BitBlt", SysCallEnter, [
        ("gdi32", "BitBlt"), ("win32u", "NtGdiBitBlt"),
        ("win32k", "NtGdiBitBlt")]),
    api!("GetAsyncKeyState", SysCallEnter, [
        ("user32", "GetAsyncKeyState"), ("win32u", "NtUserGetAsyncKeyState"),
        ("win32k", "NtUserGetAsyncKeyState")]),
    // --- process / thread / memory ---------------------------------------
    api!("CreateProcessW", ProcessCreate, [
        ("kernel32", "CreateProcessW"), ("kernelbase", "CreateProcessInternalW"),
        ("ntdll", "NtCreateUserProcess"), ("ntoskrnl", "NtCreateUserProcess"),
        ("ntoskrnl", "PspInsertProcess")]),
    api!("ExitProcess", ProcessExit, [
        ("kernel32", "ExitProcess"), ("ntdll", "NtTerminateProcess"),
        ("ntoskrnl", "NtTerminateProcess"), ("ntoskrnl", "PspExitProcess")]),
    api!("CreateThread", ThreadCreate, [
        ("kernel32", "CreateThread"), ("ntdll", "NtCreateThreadEx"),
        ("ntoskrnl", "NtCreateThreadEx"), ("ntoskrnl", "PspCreateThread")]),
    api!("CreateRemoteThread", ThreadCreate, [
        ("kernel32", "CreateRemoteThread"), ("ntdll", "NtCreateThreadEx"),
        ("ntoskrnl", "NtCreateThreadEx"), ("ntoskrnl", "PspCreateThread")]),
    api!("ExitThread", ThreadExit, [
        ("kernel32", "ExitThread"), ("ntdll", "NtTerminateThread"),
        ("ntoskrnl", "NtTerminateThread"), ("ntoskrnl", "PspExitThread")]),
    api!("VirtualAlloc", VirtualAlloc, [
        ("kernel32", "VirtualAlloc"), ("kernelbase", "VirtualAlloc"),
        ("ntdll", "NtAllocateVirtualMemory"), ("ntoskrnl", "NtAllocateVirtualMemory"),
        ("ntoskrnl", "MiAllocateVirtualMemory")]),
    api!("VirtualProtect", VirtualProtect, [
        ("kernel32", "VirtualProtect"), ("kernelbase", "VirtualProtect"),
        ("ntdll", "NtProtectVirtualMemory"), ("ntoskrnl", "NtProtectVirtualMemory"),
        ("ntoskrnl", "MiProtectVirtualMemory")]),
    api!("LoadLibraryW", ImageLoad, [
        ("kernel32", "LoadLibraryW"), ("kernelbase", "LoadLibraryExW"),
        ("ntdll", "LdrLoadDll"), ("ntdll", "NtMapViewOfSection"),
        ("ntoskrnl", "NtMapViewOfSection"), ("ntoskrnl", "MiMapViewOfSection")]),
    api!("GetProcAddress", SysCallEnter, [
        ("kernel32", "GetProcAddress"), ("ntdll", "LdrGetProcedureAddress")]),
    api!("WaitForSingleObject", SysCallEnter, [
        ("kernel32", "WaitForSingleObject"), ("ntdll", "NtWaitForSingleObject"),
        ("ntoskrnl", "NtWaitForSingleObject")]),
    api!("Sleep", SysCallEnter, [
        ("kernel32", "Sleep"), ("ntdll", "NtDelayExecution"),
        ("ntoskrnl", "NtDelayExecution")]),
    api!("malloc", SysCallEnter, [
        ("msvcrt", "malloc"), ("ntdll", "RtlAllocateHeap")]),
    api!("ShellExecuteW", ProcessCreate, [
        ("shell32", "ShellExecuteW"), ("kernel32", "CreateProcessW"),
        ("ntdll", "NtCreateUserProcess"), ("ntoskrnl", "NtCreateUserProcess"),
        ("ntoskrnl", "PspInsertProcess")]),
];

/// Resolved API: pre-built system stack frames plus the event type.
#[derive(Debug, Clone)]
struct ApiRuntime {
    name: &'static str,
    event: EventType,
    frames: Vec<StackFrame>,
}

/// Number of internal helper symbols per library (see
/// [`SysCatalog::variant_frame`]).
pub const VARIANT_POOL: usize = 48;

/// The simulated system's library and API catalog.
///
/// Build one with [`SysCatalog::standard`]; it is cheap to share
/// (`&'static`).
#[derive(Debug)]
pub struct SysCatalog {
    libs: Vec<ModuleImage>,
    /// The names of `libs`, for one lookup per stack frame.
    lib_names: HashSet<&'static str, BuildHasherDefault<NameHasher>>,
    apis: Vec<ApiRuntime>,
    by_name: BTreeMap<&'static str, ApiId>,
    variants: BTreeMap<&'static str, Vec<StackFrame>>,
}

const USER_LIB_BASE: u64 = 0x7ffb_0000_0000;
const KERNEL_LIB_BASE: u64 = 0xffff_f800_0000_0000;
const LIB_SPAN: u64 = 0x0100_0000;
const FUNC_STRIDE: u64 = 0x1000;

impl SysCatalog {
    /// Returns the process-wide standard catalog.
    pub fn standard() -> &'static SysCatalog {
        static CATALOG: OnceLock<SysCatalog> = OnceLock::new();
        CATALOG.get_or_init(SysCatalog::build)
    }

    fn build() -> SysCatalog {
        // Assign each library a base address; user-mode and kernel-mode
        // libraries live in disjoint halves of the address space.
        let mut lib_base: BTreeMap<&'static str, (Va, bool)> = BTreeMap::new();
        let mut user_idx = 0u64;
        let mut kernel_idx = 0u64;
        for lib in LIBS {
            let base = if lib.kernel {
                let b = Va(KERNEL_LIB_BASE + kernel_idx * LIB_SPAN);
                kernel_idx += 1;
                b
            } else {
                let b = Va(USER_LIB_BASE + user_idx * LIB_SPAN);
                user_idx += 1;
                b
            };
            lib_base.insert(lib.name, (base, lib.kernel));
        }

        // Collect every (lib, func) pair referenced by the API catalog and
        // assign deterministic addresses in first-appearance order.
        let mut func_addr: BTreeMap<(&'static str, &'static str), Va> = BTreeMap::new();
        let mut per_lib_count: BTreeMap<&'static str, u64> = BTreeMap::new();
        for spec in APIS {
            for &(lib, func) in spec.chain {
                assert!(
                    lib_base.contains_key(lib),
                    "API {} references unknown library {lib}",
                    spec.name
                );
                func_addr.entry((lib, func)).or_insert_with(|| {
                    let count = per_lib_count.entry(lib).or_insert(0);
                    *count += 1;
                    lib_base[lib].0.offset(*count * FUNC_STRIDE)
                });
            }
        }

        // Internal helper symbols: real libraries execute through many
        // data-dependent internal frames (heap paths, filter callbacks,
        // locking helpers) that appear in stack walks nondeterministically.
        // Each referenced library gets a pool of such symbols; the
        // execution engine splices them into chains at random, which makes
        // observed call chains variable the way real ETW stacks are.
        let mut variants: BTreeMap<&'static str, Vec<StackFrame>> = BTreeMap::new();
        let referenced: Vec<&'static str> = {
            let mut libs: Vec<&'static str> = per_lib_count.keys().copied().collect();
            libs.sort_unstable();
            libs
        };
        for lib in referenced {
            let pool: Vec<StackFrame> = (0..VARIANT_POOL)
                .map(|k| {
                    let name = format!("InternalWorker{k:02}");
                    let count = per_lib_count.get_mut(lib).expect("counted above");
                    *count += 1;
                    let addr = lib_base[lib].0.offset(*count * FUNC_STRIDE);
                    func_addr.insert((lib, Box::leak(name.clone().into_boxed_str())), addr);
                    StackFrame::new(lib, name, addr, false)
                })
                .collect();
            variants.insert(lib, pool);
        }

        // Materialize module images.
        let mut funcs_per_lib: BTreeMap<&'static str, Vec<FunctionSym>> = BTreeMap::new();
        for (&(lib, func), &addr) in &func_addr {
            funcs_per_lib.entry(lib).or_default().push(FunctionSym { name: func.to_owned(), addr });
        }
        let libs: Vec<ModuleImage> = LIBS
            .iter()
            .map(|spec| {
                let (base, _) = lib_base[spec.name];
                ModuleImage::new(
                    spec.name,
                    AddressRange::new(base, base.offset(LIB_SPAN)),
                    funcs_per_lib.remove(spec.name).unwrap_or_default(),
                    false,
                )
            })
            .collect();

        // Materialize API frame chains.
        let mut by_name = BTreeMap::new();
        let apis: Vec<ApiRuntime> = APIS
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let dup = by_name.insert(spec.name, ApiId(i));
                assert!(dup.is_none(), "duplicate API name {}", spec.name);
                ApiRuntime {
                    name: spec.name,
                    event: spec.event,
                    frames: spec
                        .chain
                        .iter()
                        .map(|&(lib, func)| {
                            StackFrame::new(lib, func, func_addr[&(lib, func)], false)
                        })
                        .collect(),
                }
            })
            .collect();

        let lib_names = LIBS.iter().map(|spec| spec.name).collect();
        SysCatalog { libs, lib_names, apis, by_name, variants }
    }

    /// The `k`-th internal helper frame of `lib` (see [`VARIANT_POOL`]),
    /// or `None` for unknown libraries.
    ///
    /// # Panics
    ///
    /// Panics if `k >= VARIANT_POOL`.
    #[must_use]
    pub fn variant_frame(&self, lib: &str, k: usize) -> Option<&StackFrame> {
        assert!(k < VARIANT_POOL, "variant index {k} out of range");
        self.variants.get(lib).map(|pool| &pool[k])
    }

    /// Looks up an API id by catalog name.
    ///
    /// # Panics
    ///
    /// Panics on unknown names: profiles reference APIs statically, so an
    /// unknown name is a programming error, caught by unit tests.
    #[must_use]
    pub fn api_id(&self, name: &str) -> ApiId {
        *self.by_name.get(name).unwrap_or_else(|| panic!("unknown API {name:?} in catalog"))
    }

    /// Name of an API.
    #[must_use]
    pub fn api_name(&self, id: ApiId) -> &'static str {
        self.apis[id.0].name
    }

    /// The system stack frames an invocation of `id` produces
    /// (outermost first).
    #[must_use]
    pub fn frames(&self, id: ApiId) -> &[StackFrame] {
        &self.apis[id.0].frames
    }

    /// The event type an invocation of `id` emits.
    #[must_use]
    pub fn event_type(&self, id: ApiId) -> EventType {
        self.apis[id.0].event
    }

    /// Number of APIs in the catalog.
    #[must_use]
    pub fn api_count(&self) -> usize {
        self.apis.len()
    }

    /// The shared-library and kernel module images.
    #[must_use]
    pub fn libraries(&self) -> &[ModuleImage] {
        &self.libs
    }

    /// Whether `name` names one of [`SysCatalog::libraries`].
    #[must_use]
    pub fn is_library(&self, name: &str) -> bool {
        self.lib_names.contains(name)
    }

    /// Resolves an address to its owning library module, if any.
    #[must_use]
    pub fn library_of(&self, addr: Va) -> Option<&ModuleImage> {
        self.libs.iter().find(|m| m.range.contains(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn catalog_builds_and_is_nonempty() {
        let c = SysCatalog::standard();
        assert!(c.api_count() >= 45);
        assert!(c.libraries().len() >= 20);
    }

    #[test]
    fn every_api_frame_resolves_in_its_library() {
        let c = SysCatalog::standard();
        for i in 0..c.api_count() {
            for frame in c.frames(ApiId(i)) {
                let lib = c.library_of(frame.addr).expect("frame addr in some lib");
                assert_eq!(lib.name, *frame.module);
                let sym = lib.resolve(frame.addr).expect("symbol resolves");
                assert_eq!(sym.name, *frame.function);
                assert!(!frame.in_app_image);
            }
        }
    }

    #[test]
    fn library_ranges_are_disjoint() {
        let c = SysCatalog::standard();
        let libs = c.libraries();
        for (i, a) in libs.iter().enumerate() {
            for b in &libs[i + 1..] {
                assert!(!a.range.overlaps(&b.range), "{} overlaps {}", a.name, b.name);
            }
        }
    }

    #[test]
    fn api_names_unique_and_lookup_consistent() {
        let c = SysCatalog::standard();
        let mut seen = HashSet::new();
        for i in 0..c.api_count() {
            let name = c.api_name(ApiId(i));
            assert!(seen.insert(name));
            assert_eq!(c.api_id(name), ApiId(i));
        }
    }

    #[test]
    fn send_chain_shape() {
        let c = SysCatalog::standard();
        let id = c.api_id("send");
        assert_eq!(c.event_type(id), EventType::TcpSend);
        let frames = c.frames(id);
        assert_eq!(frames.first().unwrap().symbol(), "ws2_32!send");
        assert_eq!(frames.last().unwrap().symbol(), "tcpip!TcpSendData");
    }

    #[test]
    #[should_panic(expected = "unknown API")]
    fn unknown_api_panics() {
        let _ = SysCatalog::standard().api_id("NoSuchApi");
    }

    #[test]
    fn shared_functions_have_one_address() {
        // NtDeviceIoControlFile appears in many chains; its address must be
        // identical everywhere so call graphs merge correctly.
        let c = SysCatalog::standard();
        let mut addrs = HashSet::new();
        for i in 0..c.api_count() {
            for f in c.frames(ApiId(i)) {
                if f.symbol() == "ntdll!NtDeviceIoControlFile" {
                    addrs.insert(f.addr);
                }
            }
        }
        assert_eq!(addrs.len(), 1);
    }
}
