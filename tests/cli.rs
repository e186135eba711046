//! Integration tests of the `mdhc` CLI: all three front ends through the
//! binary, run/estimate/tune subcommands, and the tuning cache file.

use std::process::Command;

fn mdhc() -> Command {
    Command::new(env!("CARGO_BIN_EXE_mdhc"))
}

fn write_temp(name: &str, content: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("mdhc_cli_tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, content).unwrap();
    path
}

const PY_MATVEC: &str = "\
@mdh( out( w = Buffer[fp32] ),
      inp( M = Buffer[fp32], v = Buffer[fp32] ),
      combine_ops( cc, pw(add) ) )
def matvec(w, M, v):
    for i in range(I):
        for k in range(K):
            w[i] = M[i, k] * v[k]
";

const C_MATVEC: &str = r#"
#pragma mdh out(w: float[I]) inp(M: float[I][K], v: float[K]) combine_ops(cc, pw(add))
for (int i = 0; i < I; i++) {
    for (int k = 0; k < K; k++) {
        w[i] = M[i][k] * v[k];
    }
}
"#;

const DSL_MATVEC: &str = "\
out_view[fp32]( w = [lambda i,k: (i)] ),
md_hom[I,K]( f_mul, (cc, pw(add)) ),
inp_view[fp32,fp32]( M = [lambda i,k: (i,k)], v = [lambda i,k: (k)] )
";

const F_MATVEC: &str = "\
!$mdh out(w: real[I]) inp(M: real[I][K], v: real[K]) &
!$mdh combine_ops(cc, pw(add))
do i = 1, I
   do k = 1, K
      w(i) = M(i, k) * v(k)
   end do
end do
";

#[test]
fn compile_summarises_all_three_front_ends() {
    for (name, src) in [
        ("mv.py", PY_MATVEC),
        ("mv.c", C_MATVEC),
        ("mv.mdh", DSL_MATVEC),
        ("mv.f90", F_MATVEC),
    ] {
        let f = write_temp(name, src);
        let out = mdhc()
            .args(["compile"])
            .arg(&f)
            .args(["-D", "I=8", "-D", "K=8"])
            .output()
            .expect("mdhc runs");
        assert!(out.status.success(), "{name}: {:?}", out);
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("2D"), "{name}: {text}");
        assert!(text.contains("reduction dims: [1]"), "{name}: {text}");
        assert!(text.contains("pw(add)"), "{name}: {text}");
    }
}

#[test]
fn run_executes_and_prints_checksum() {
    let f = write_temp("run_mv.py", PY_MATVEC);
    let out = mdhc()
        .args(["run"])
        .arg(&f)
        .args(["-D", "I=32", "-D", "K=32", "--threads", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("checksum w"), "{text}");
    assert!(text.contains("executed in"), "{text}");
}

#[test]
fn run_checksums_agree_across_front_ends() {
    let mut sums = Vec::new();
    for (name, src) in [
        ("a.py", PY_MATVEC),
        ("a.c", C_MATVEC),
        ("a.mdh", DSL_MATVEC),
        ("a.f90", F_MATVEC),
    ] {
        let f = write_temp(name, src);
        let out = mdhc()
            .args(["run"])
            .arg(&f)
            .args(["-D", "I=16", "-D", "K=16", "--threads", "2"])
            .output()
            .unwrap();
        assert!(out.status.success());
        let text = String::from_utf8_lossy(&out.stdout);
        let line = text
            .lines()
            .find(|l| l.starts_with("checksum"))
            .expect("checksum line");
        sums.push(line.split('=').nth(1).unwrap().trim().to_string());
    }
    assert_eq!(sums[0], sums[1], "python vs c");
    assert_eq!(sums[0], sums[2], "python vs dsl");
    assert_eq!(sums[0], sums[3], "python vs fortran");
}

#[test]
fn estimate_prints_model_times() {
    let f = write_temp("est_mv.py", PY_MATVEC);
    for dev in ["gpu", "cpu"] {
        let out = mdhc()
            .args(["estimate"])
            .arg(&f)
            .args(["-D", "I=1024", "-D", "K=1024", "--device", dev])
            .output()
            .unwrap();
        assert!(out.status.success(), "{dev}: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("model"), "{dev}: {text}");
    }
}

#[test]
fn tune_writes_and_reuses_cache() {
    let f = write_temp("tune_mv.py", PY_MATVEC);
    let cache = std::env::temp_dir().join("mdhc_cli_tests/tune_cache.txt");
    let _ = std::fs::remove_file(&cache);
    let out = mdhc()
        .args(["tune"])
        .arg(&f)
        .args([
            "-D", "I=512", "-D", "K=512", "--device", "gpu", "--budget", "20",
        ])
        .arg("--cache")
        .arg(&cache)
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("tuned ("), "{text}");
    assert!(cache.exists());

    // second invocation hits the cache
    let out2 = mdhc()
        .args(["tune"])
        .arg(&f)
        .args(["-D", "I=512", "-D", "K=512", "--device", "gpu"])
        .arg("--cache")
        .arg(&cache)
        .output()
        .unwrap();
    let text2 = String::from_utf8_lossy(&out2.stdout);
    assert!(text2.contains("cache hit"), "{text2}");
}

#[test]
fn compile_error_is_reported_with_position() {
    let f = write_temp("bad.py", &PY_MATVEC.replace("w[i] =", "w[i] +="));
    let out = mdhc()
        .args(["compile"])
        .arg(&f)
        .args(["-D", "I=4", "-D", "K=4"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("combine_ops"), "{err}");
}

#[test]
fn missing_file_fails_cleanly() {
    let out = mdhc()
        .args(["compile", "/nonexistent/kernel.py"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

/// A command `mdhc` does not have is a usage error, answered before the
/// positional is read as a file.
#[test]
fn unknown_command_prints_usage() {
    for cmd in ["front", "launch"] {
        let out = mdhc().args([cmd, "/nonexistent/x.sock"]).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd}: {stderr}");
        assert!(stderr.contains("unknown command"), "{cmd}: {stderr}");
        assert!(stderr.contains("usage: mdhc"), "{cmd}: {stderr}");
    }
}

/// The fields of every `ok` reply line that must not depend on framing:
/// the output and gradient checksums.
fn checksum_fields(stdout: &[u8]) -> Vec<String> {
    let text = String::from_utf8_lossy(stdout);
    let oks = text.lines().filter(|l| l.starts_with("ok "));
    let fields = oks.flat_map(|l| l.split_whitespace().map(str::to_string).collect::<Vec<_>>());
    fields
        .filter(|f| f.starts_with("checksum=") || f.starts_with("grad_checksum="))
        .collect()
}

/// Kills the server child if a test fails before it shuts down.
struct Child(std::process::Child);

impl Drop for Child {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn serve_submit_and_stats_agree_pipelined_and_sequential() {
    let dir = std::env::temp_dir().join(format!("mdhc_cli_serve_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("mdhc.sock");
    let kernel = write_temp("serve_mv.py", PY_MATVEC);
    let mut server = Child(
        mdhc()
            .arg("serve")
            .arg(&sock)
            .args(["--workers", "1", "--threads", "2"])
            .stdout(std::process::Stdio::null())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("mdhc serve starts"),
    );
    for _ in 0..500 {
        if std::os::unix::net::UnixStream::connect(&sock).is_ok() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let submit = |extra: &[&str]| {
        let out = mdhc()
            .arg("submit")
            .arg(&kernel)
            .arg("--socket")
            .arg(&sock)
            .args(["-D", "I=16", "-D", "K=16", "--count", "3"])
            .args(extra)
            .output()
            .unwrap();
        assert!(out.status.success(), "{extra:?}: {out:?}");
        checksum_fields(&out.stdout)
    };
    for grad in [&[][..], &["--grad"]] {
        let pipelined = submit(grad);
        let sequential = submit(&[grad, &["--sequential"]].concat());
        let want = if grad.is_empty() { 3 } else { 6 };
        assert_eq!(pipelined.len(), want, "{grad:?}: {pipelined:?}");
        assert_eq!(pipelined, sequential, "{grad:?}");
    }
    // 2 × 3 plain launches + 2 × 3 round trips of a forward and two parts
    for (json, prefix) in [(false, "stats requests=24 "), (true, "stats-json {")] {
        let out = mdhc()
            .arg("stats")
            .arg(&sock)
            .args(json.then_some("--json"))
            .output()
            .unwrap();
        assert!(out.status.success(), "{out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with(prefix), "{text}");
    }
    let bye = mdh::runtime::Client::unix(&sock).shutdown().unwrap();
    assert_eq!(bye, ["ok shutting down"]);
    assert!(server.0.wait().unwrap().success());
    let _ = std::fs::remove_dir_all(&dir);
}
