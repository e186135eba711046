//! A cached plan never changes. A runtime runs no thread of its own
//! beside its workers, and every launch of one key is answered from the
//! one plan its miss lowered, with the same output bits each time.
//!
//! One test in its own file: it counts the threads of its process, which
//! no other test may share.

use mdh_apps::{instantiate, Scale, StudyId};
use mdh_core::buffer::bits_hash;
use mdh_lowering::DeviceKind;
use mdh_runtime::{PlanSource, Request, Runtime, RuntimeConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `(id, name)` of every thread of this process.
fn threads() -> Vec<(String, String)> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("/proc/self/task");
    tasks
        .filter_map(|task| {
            let task = task.ok()?;
            let name = std::fs::read_to_string(task.path().join("comm")).ok()?;
            let id = task.file_name().to_string_lossy().into_owned();
            Some((id, name.trim_end().to_string()))
        })
        .collect()
}

#[test]
fn a_runtime_runs_only_its_workers_and_never_replaces_a_plan() {
    let before: Vec<String> = threads().into_iter().map(|(id, _)| id).collect();
    let own = std::fs::read_to_string("/proc/thread-self/comm").expect("own name");
    let inherited = own.trim_end();
    let workers = Runtime::new(RuntimeConfig {
        workers: 2,
        exec_threads: 2,
        ..RuntimeConfig::default()
    })
    .expect("runtime");
    // every thread the runtime started exists once `new` returns, and
    // carries this thread's name until it has set its own
    let started = || {
        let mut new = threads();
        new.retain(|(id, _)| !before.contains(id));
        new
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut names = started();
    while names.iter().any(|(_, name)| name.as_str() == inherited) {
        assert!(Instant::now() < deadline, "unnamed threads: {names:?}");
        std::thread::sleep(Duration::from_millis(1));
        names = started();
    }
    names.retain(|(_, name)| name.starts_with("mdh-runtime-"));
    assert_eq!(
        names.len(),
        2,
        "the two workers and nothing else: {names:?}"
    );
    drop(workers);

    // MBBS no. 1: a custom combine over real-valued data, whose output
    // bits follow its schedule
    let app = instantiate(
        StudyId {
            name: "MBBS",
            input_no: 1,
        },
        Scale::Medium,
    )
    .expect("MBBS");
    let inputs = Arc::new(app.inputs);
    let rt = Runtime::new(RuntimeConfig::default()).expect("runtime");
    let mut first = None;
    for launch in 0..12 {
        let req = Request::new(app.program.clone(), DeviceKind::Cpu, Arc::clone(&inputs));
        let resp = rt.submit(req).wait().expect("launch");
        rt.wait_idle();
        assert_eq!(resp.cache_hit, launch > 0, "launch {launch}");
        assert_eq!(resp.plan_source, PlanSource::Heuristic, "launch {launch}");
        assert_eq!(resp.plan_epoch, 0, "launch {launch}");
        let bits = bits_hash(&resp.outputs);
        assert_eq!(*first.get_or_insert(bits), bits, "launch {launch}");
    }
}
