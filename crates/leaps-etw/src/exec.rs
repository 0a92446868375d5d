//! The execution engine: turns program models into stack-walked event
//! streams, including interleaved benign/malicious execution for mixed
//! runs.
//!
//! Events are generated as *bursts* per activity (a program works on one
//! thing for a while before switching), which produces the adjacent-event
//! stack correlation Algorithm 1's implicit-path inference exploits.

use crate::attack::{AttackMethod, InfectedProcess};
use crate::event::{Name, Provenance, StackFrame, SysEvent};
use crate::program::{FuncId, ProgramModel};
use crate::rng::SimRng;
use crate::syslib::SysCatalog;

/// Probability of staying in the current activity for the next event.
const ACTIVITY_PERSISTENCE: f64 = 0.85;
/// Probability that the next mixed-run event comes from the same thread
/// as the previous one (burst interleaving; mean burst ≈ 12 events).
const BURST_CONTINUATION: f64 = 0.92;
/// Probability that an API chain routes through an internal helper frame.
const VARIANT_INSERT_P: f64 = 0.4;
/// Main application thread id.
const APP_TID: u32 = 0x100;
/// Backdoor/injected thread id.
const PAYLOAD_TID: u32 = 0x200;

/// Probability that a payload API invocation skips the outermost
/// user-mode wrapper frame: shellcode and reflectively loaded payloads
/// resolve low-level entry points directly (no import table, direct
/// `ntdll`/provider calls), so their stack walks miss the documented
/// wrapper frames a normally linked application shows.
const PAYLOAD_DIRECT_CALL_P: f64 = 0.65;

/// One program's event source within a run.
struct Stream<'m> {
    model: &'m ProgramModel,
    enabled: Vec<usize>,
    truth: Provenance,
    tid: u32,
    /// Stack frames prepended to every event (offline-infection hijack
    /// prefix), outermost first.
    prefix: Vec<StackFrame>,
    /// Module name override for the program's own frames.
    module_name: Name,
    /// Probability of skipping the outermost user-mode API wrapper frame
    /// (0 for normally linked applications).
    direct_call_p: f64,
    current_activity: usize,
    rng: SimRng,
}

impl<'m> Stream<'m> {
    #[allow(clippy::too_many_arguments)]
    fn new(
        model: &'m ProgramModel,
        enabled: Vec<usize>,
        truth: Provenance,
        tid: u32,
        prefix: Vec<StackFrame>,
        module_name: &str,
        direct_call_p: f64,
        rng: SimRng,
    ) -> Self {
        let mut s = Stream {
            model,
            enabled,
            truth,
            tid,
            prefix,
            module_name: module_name.into(),
            direct_call_p,
            current_activity: 0,
            rng,
        };
        s.current_activity = s.model.sample_activity(&s.enabled, &mut s.rng);
        s
    }

    fn next_event(&mut self, num: u64, pid: u32, timestamp: u64) -> SysEvent {
        if !self.rng.chance(ACTIVITY_PERSISTENCE) {
            self.current_activity = self.model.sample_activity(&self.enabled, &mut self.rng);
        }
        let (path, api) = self.model.sample_call(self.current_activity, &mut self.rng);
        let catalog = SysCatalog::standard();
        let mut frames = self.prefix.clone();
        frames.extend(path.iter().map(|&fid| self.frame_of(fid)));
        let api_frames = catalog.frames(api);
        let mut skip = usize::from(
            api_frames.len() > 2 && self.direct_call_p > 0.0 && self.rng.chance(self.direct_call_p),
        );
        // Long wrapper chains (e.g. wininet over winsock) lose more than
        // one frame when the payload resolves providers directly.
        if skip == 1 && api_frames.len() > 4 && self.rng.chance(0.5) {
            skip = 2;
        }
        let chain = &api_frames[skip..];
        // Data-dependent internal helper frames: real stack walks route
        // through allocator/filter/lock helpers nondeterministically, so
        // the same API produces many chain variants. Each frame may call
        // into a helper of its own library; the variant index is skewed so
        // a few helpers are hot and the tail is rare -- rare variants are
        // what a call-graph model never saw in training, while the
        // set-dissimilarity clustering absorbs them (the paper's
        // robustness argument for statistical learning).
        for (i, frame) in chain.iter().enumerate() {
            frames.push(frame.clone());
            if i + 1 < chain.len() && self.rng.chance(VARIANT_INSERT_P) {
                let r = self.rng.f64();
                let k = (r.powf(1.2) * crate::syslib::VARIANT_POOL as f64) as usize;
                let k = k.min(crate::syslib::VARIANT_POOL - 1);
                if let Some(helper) = catalog.variant_frame(&frame.module, k) {
                    frames.push(helper.clone());
                }
            }
        }
        SysEvent {
            num,
            etype: catalog.event_type(api),
            pid,
            tid: self.tid,
            timestamp,
            frames,
            truth: self.truth,
        }
    }

    fn frame_of(&self, fid: FuncId) -> StackFrame {
        let f = &self.model.functions[fid];
        StackFrame::new(self.module_name.clone(), f.name.as_str(), f.addr, true)
    }
}

/// Parameters of a single traced run.
#[derive(Debug, Clone, Copy)]
pub struct RunParams {
    /// Number of events to emit.
    pub events: usize,
    /// Traced process id.
    pub pid: u32,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams { events: 2000, pid: 0x5c4 }
    }
}

/// Runs a clean application, excluding the activities in `disabled`
/// (the latent activity during benign training runs).
///
/// Events are numbered from 1; timestamps are strictly increasing.
#[must_use]
pub fn run_benign(
    app: &ProgramModel,
    disabled: &[usize],
    params: RunParams,
    seed: u64,
) -> Vec<SysEvent> {
    let enabled: Vec<usize> =
        (0..app.activity_entries.len()).filter(|i| !disabled.contains(i)).collect();
    let rng = SimRng::new(seed);
    let mut stream = Stream::new(
        app,
        enabled,
        Provenance::Benign,
        APP_TID,
        Vec::new(),
        &app.module.name,
        0.0,
        rng.derive(1),
    );
    let mut clock = rng.derive(2);
    let mut ts = 0u64;
    (0..params.events)
        .map(|i| {
            ts += 1 + clock.below(40) as u64;
            stream.next_event(i as u64 + 1, params.pid, ts)
        })
        .collect()
}

/// Parameters of a mixed (infected) run.
#[derive(Debug, Clone, Copy)]
pub struct MixedParams {
    /// Base run parameters.
    pub run: RunParams,
    /// Fraction of events originating from benign code (the payload runs
    /// under cover, so benign events dominate — the "noisy training set").
    pub benign_ratio: f64,
}

impl Default for MixedParams {
    fn default() -> Self {
        MixedParams { run: RunParams::default(), benign_ratio: 0.6 }
    }
}

/// Runs an infected application: benign activity (including the latent
/// activities unseen during benign training) interleaved with payload
/// activity.
#[must_use]
pub fn run_mixed(
    app: &ProgramModel,
    infection: &InfectedProcess,
    params: MixedParams,
    seed: u64,
) -> Vec<SysEvent> {
    assert!((0.0..=1.0).contains(&params.benign_ratio), "benign_ratio must be in [0,1]");
    let rng = SimRng::new(seed);
    // Source-level trojans run the benign code from the recompiled image.
    let benign_model = infection.app_override.as_ref().unwrap_or(app);
    let all: Vec<usize> = (0..benign_model.activity_entries.len()).collect();
    let mut benign = Stream::new(
        benign_model,
        all,
        Provenance::Benign,
        APP_TID,
        Vec::new(),
        &benign_model.module.name,
        0.0,
        rng.derive(1),
    );
    let prefix = hijack_prefix(benign_model, infection);
    let payload_enabled: Vec<usize> = (0..infection.payload.activity_entries.len()).collect();
    let mut payload = Stream::new(
        &infection.payload,
        payload_enabled,
        Provenance::Malicious,
        PAYLOAD_TID,
        prefix,
        &infection.payload_module_name,
        PAYLOAD_DIRECT_CALL_P,
        rng.derive(2),
    );

    let mut pick = rng.derive(3);
    let mut clock = rng.derive(4);
    let mut ts = 0u64;
    // Interleave in bursts: consecutive events tend to come from the same
    // thread (the scheduler runs each timeslice for many events, and a C2
    // session or file transfer emits long homogeneous phases).
    let mut from_benign = true;
    (0..params.run.events)
        .map(|i| {
            if !pick.chance(BURST_CONTINUATION) {
                from_benign = pick.chance(params.benign_ratio);
            }
            ts += 1 + clock.below(40) as u64;
            let num = i as u64 + 1;
            if from_benign {
                benign.next_event(num, params.run.pid, ts)
            } else {
                payload.next_event(num, params.run.pid, ts)
            }
        })
        .collect()
}

/// Runs the payload as standalone malware (the paper's manually extracted
/// and recompiled "pure malicious samples", used as testing ground truth).
#[must_use]
pub fn run_standalone_payload(
    payload: &ProgramModel,
    params: RunParams,
    seed: u64,
) -> Vec<SysEvent> {
    let rng = SimRng::new(seed);
    let enabled: Vec<usize> = (0..payload.activity_entries.len()).collect();
    let mut stream = Stream::new(
        payload,
        enabled,
        Provenance::Malicious,
        APP_TID,
        Vec::new(),
        &payload.module.name,
        PAYLOAD_DIRECT_CALL_P,
        rng.derive(1),
    );
    let mut clock = rng.derive(2);
    let mut ts = 0u64;
    (0..params.events)
        .map(|i| {
            ts += 1 + clock.below(40) as u64;
            stream.next_event(i as u64 + 1, params.pid, ts)
        })
        .collect()
}

fn hijack_prefix(app: &ProgramModel, infection: &InfectedProcess) -> Vec<StackFrame> {
    match (infection.method, infection.hijack) {
        (AttackMethod::OfflineInfection | AttackMethod::SourceRecompile, Some(hijack)) => {
            let root = &app.functions[app.root];
            let h = &app.functions[hijack];
            vec![
                StackFrame::new(app.module.name.as_str(), root.name.as_str(), root.addr, true),
                StackFrame::new(app.module.name.as_str(), h.name.as_str(), h.addr, true),
            ]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{app_spec, latent_activity_index, AppId, APP_BASE};
    use crate::attack::InfectedProcess;
    use crate::payload::{payload_spec, PayloadId};

    fn setup() -> (ProgramModel, InfectedProcess) {
        let app = app_spec(AppId::Vim).instantiate(APP_BASE, 7);
        let inf = InfectedProcess::stage(
            &app,
            &payload_spec(PayloadId::ReverseTcp),
            AttackMethod::OfflineInfection,
            7,
        );
        (app, inf)
    }

    #[test]
    fn benign_run_emits_requested_count_with_monotone_numbering() {
        let (app, _) = setup();
        let events = run_benign(&app, &[], RunParams { events: 500, pid: 1 }, 3);
        assert_eq!(events.len(), 500);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.num, i as u64 + 1);
            assert_eq!(e.truth, Provenance::Benign);
            assert!(e.frames.iter().any(|f| f.in_app_image));
            assert!(e.frames.iter().any(|f| !f.in_app_image));
        }
        let ts: Vec<u64> = events.iter().map(|e| e.timestamp).collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn benign_run_is_deterministic() {
        let (app, _) = setup();
        let a = run_benign(&app, &[], RunParams::default(), 3);
        let b = run_benign(&app, &[], RunParams::default(), 3);
        assert_eq!(a, b);
        let c = run_benign(&app, &[], RunParams::default(), 4);
        assert_ne!(a, c);
    }

    #[test]
    fn disabled_activity_never_appears() {
        let (app, _) = setup();
        let latent = latent_activity_index(&app_spec(AppId::Vim));
        let latent_name = app.activity_names[latent];
        let events = run_benign(&app, &[latent], RunParams { events: 800, pid: 1 }, 3);
        for e in &events {
            for f in e.frames.iter().filter(|f| f.in_app_image) {
                assert!(
                    !f.function.contains(latent_name),
                    "latent activity leaked: {}",
                    f.function
                );
            }
        }
    }

    #[test]
    fn mixed_run_interleaves_and_respects_ratio_roughly() {
        let (app, inf) = setup();
        let events = run_mixed(
            &app,
            &inf,
            MixedParams { run: RunParams { events: 3000, pid: 1 }, benign_ratio: 0.6 },
            11,
        );
        let benign = events.iter().filter(|e| e.truth == Provenance::Benign).count();
        let frac = benign as f64 / events.len() as f64;
        assert!((0.5..0.7).contains(&frac), "benign fraction {frac}");
        // Malicious events run on the payload thread.
        for e in &events {
            match e.truth {
                Provenance::Benign => assert_eq!(e.tid, APP_TID),
                Provenance::Malicious => assert_eq!(e.tid, PAYLOAD_TID),
            }
        }
    }

    #[test]
    fn offline_malicious_events_carry_hijack_prefix() {
        let (app, inf) = setup();
        let events = run_mixed(&app, &inf, MixedParams::default(), 11);
        let mal = events
            .iter()
            .find(|e| e.truth == Provenance::Malicious)
            .expect("some malicious events");
        assert_eq!(mal.frames[0].function, "main");
        assert_eq!(mal.frames[0].module, *app.module.name);
        // Payload frames resolve to the host module for offline infection.
        assert!(mal.frames.iter().any(|f| f.in_app_image && f.function.starts_with("payload_")));
    }

    #[test]
    fn online_malicious_events_have_anonymous_frames_and_no_prefix() {
        let app = app_spec(AppId::Putty).instantiate(APP_BASE, 2);
        let inf = InfectedProcess::stage(
            &app,
            &payload_spec(PayloadId::ReverseHttps),
            AttackMethod::OnlineInjection,
            2,
        );
        let events = run_mixed(&app, &inf, MixedParams::default(), 5);
        let mal = events
            .iter()
            .find(|e| e.truth == Provenance::Malicious)
            .expect("some malicious events");
        // Remote-thread stacks start at the payload's own entry, which
        // resolves to no module.
        assert_eq!(mal.frames[0].function, "main");
        assert_eq!(mal.frames[0].module, "<anon>");
        assert!(mal
            .frames
            .iter()
            .any(|f| f.module == "<anon>" && f.function.starts_with("payload_")));
    }

    #[test]
    fn standalone_payload_is_all_malicious() {
        let payload =
            payload_spec(PayloadId::Pwddlg).instantiate(crate::attack::STANDALONE_BASE, 7);
        let events = run_standalone_payload(&payload, RunParams { events: 300, pid: 9 }, 13);
        assert_eq!(events.len(), 300);
        assert!(events.iter().all(|e| e.truth == Provenance::Malicious));
    }

    #[test]
    fn adjacent_events_share_stack_prefixes_often() {
        let (app, _) = setup();
        let events = run_benign(&app, &[], RunParams { events: 1000, pid: 1 }, 3);
        let mut shared = 0usize;
        for w in events.windows(2) {
            let a: Vec<_> = w[0].app_frames().map(|f| f.addr).collect();
            let b: Vec<_> = w[1].app_frames().map(|f| f.addr).collect();
            if a.len() >= 2 && b.len() >= 2 && a[..2] == b[..2] {
                shared += 1;
            }
        }
        // Bursty activities mean most neighbours share main + activity entry.
        assert!(shared > 500, "only {shared} adjacent pairs share a prefix");
    }
}
