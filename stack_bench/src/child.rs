//! The system under test, as child processes of this binary.
//!
//! `serve <socket> <devices>` is the product's server, unchanged.
//! `lib <workload>` puts `Runtime::submit` / `submit_grad` behind a line
//! protocol on stdin/stdout that mirrors the wire's pipelined reply
//! grammar (`id=<n> ok ... checksum=...`, `id=<n> done 1`), so the parent
//! drives and verifies both with the same closed loop — but no socket, no
//! front-end memo and no server thread is involved.

use crate::harness::sut_config;
use crate::workloads::workload;
use mdh_lowering::DeviceKind;
use mdh_runtime::server::{checksum, serve_opts};
use mdh_runtime::{GradHandle, Handle, Request, Response, Runtime, ServeOptions};
use std::io::{BufRead, Write};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

pub fn serve_main(args: &[String]) -> Result<(), String> {
    let [sock, devices] = args else {
        return Err("usage: stack_bench serve <socket> <devices>".into());
    };
    let devices: usize = devices.parse().map_err(|_| "bad device count")?;
    serve_opts(
        ServeOptions {
            unix: Some(sock.into()),
            ..ServeOptions::default()
        },
        sut_config(devices),
    )
    .map_err(|e| format!("serve_opts: {e}"))
}

enum Work {
    Plain(Handle),
    Grad(GradHandle),
}

fn sums(bufs: impl Iterator<Item = (String, f64)>) -> String {
    bufs.map(|(n, v)| format!("{n}={v:.6}"))
        .collect::<Vec<_>>()
        .join(",")
}

fn ok_line(resp: &Response) -> String {
    format!(
        "ok hit={} source={} epoch={} batch={} exec_ms={:.4} total_ms={:.4} checksum={}",
        resp.cache_hit,
        resp.plan_source,
        resp.plan_epoch,
        resp.batch_size,
        resp.exec_ms,
        resp.total_ms,
        sums(resp.outputs.iter().map(|b| (b.name.clone(), checksum(b))))
    )
}

fn collect(work: Work) -> String {
    match work {
        Work::Plain(h) => match h.wait() {
            Ok(resp) => ok_line(&resp),
            Err(e) => format!("err {e}"),
        },
        Work::Grad(h) => match h.wait() {
            Ok(g) => format!(
                "{} parts={} grad_checksum={}",
                ok_line(&g.forward),
                g.parts,
                sums(
                    g.gradients
                        .iter()
                        .map(|(_, b)| (b.name.clone(), checksum(b)))
                )
            ),
            Err(e) => format!("err {e}"),
        },
    }
}

pub fn lib_main(args: &[String]) -> Result<(), String> {
    let wl = args
        .first()
        .and_then(|n| workload(n))
        .ok_or("usage: stack_bench lib <workload>")?;
    let built: Vec<_> = wl.mix.iter().map(|r| r.build()).collect::<Result<_, _>>()?;
    let rt = Runtime::new(sut_config(1)).map_err(|e| e.to_string())?;
    let out = Arc::new(Mutex::new(std::io::stdout()));
    let say = |out: &Mutex<std::io::Stdout>, text: &str| {
        let mut o = out.lock().expect("stdout lock");
        let _ = writeln!(o, "{text}");
        let _ = o.flush();
    };

    // as on the wire: the reader submits at once, a small pool waits the
    // handles out, so a slow request does not hold a fast one behind it
    let (tx, rx) = mpsc::channel::<(u64, Work)>();
    let rx = Arc::new(Mutex::new(rx));
    let collectors: Vec<_> = (0..wl.window)
        .map(|_| {
            let (rx, out) = (Arc::clone(&rx), Arc::clone(&out));
            std::thread::spawn(move || loop {
                let next = rx.lock().expect("work lock").recv();
                let Ok((id, work)) = next else { break };
                let line = collect(work);
                let served = usize::from(line.starts_with("ok "));
                say(&out, &format!("id={id} {line}\nid={id} done {served}"));
            })
        })
        .collect();

    say(&out, "ready");
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| e.to_string())?;
        let f: Vec<&str> = line.split_whitespace().collect();
        match f.as_slice() {
            ["REQ", idx, id] => {
                let parsed = idx
                    .parse::<usize>()
                    .ok()
                    .and_then(|i| built.get(i).map(|b| (i, b)))
                    .zip(id.strip_prefix("id=").and_then(|v| v.parse::<u64>().ok()));
                let Some(((i, (prog, inputs)), id)) = parsed else {
                    say(&out, &format!("err bad request line: {line}"));
                    break;
                };
                let req = Request::new(prog.clone(), DeviceKind::Cpu, inputs.clone());
                let work = if wl.mix[i].grad {
                    match rt.submit_grad(req, None, None) {
                        Ok(h) => Work::Grad(h),
                        Err(e) => {
                            say(&out, &format!("id={id} err {e}"));
                            continue;
                        }
                    }
                } else {
                    Work::Plain(rt.submit(req))
                };
                if tx.send((id, work)).is_err() {
                    break;
                }
            }
            ["STATS"] => {
                say(&out, &format!("stats-json {}", rt.stats().to_json()));
            }
            ["QUIT"] => break,
            _ => {
                say(&out, &format!("err unknown command: {line}"));
                break;
            }
        }
    }
    drop(tx);
    for c in collectors {
        let _ = c.join();
    }
    Ok(())
}
