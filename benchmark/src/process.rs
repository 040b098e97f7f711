//! The `pdgf` binary as a subprocess: building it, running `generate`,
//! and a `serve` child that cannot outlive the benchmark.

use std::io::{BufRead as _, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::host;
use crate::Res;

/// The TPC-H model every TPC-H workload loads — in process, through
/// `pdgf generate` and through `pdgf serve` alike.
pub fn tpch_model() -> PathBuf {
    host::repo_root().join("models/tpch.xml")
}

/// Build the repository's `pdgf` binary (release profile, from the
/// checkout this benchmark was built in) and return its path. `cargo run`
/// on this crate builds only libraries, so the CLI the subprocess
/// workloads measure is built here, into the same target directory.
pub fn pdgf_binary() -> Res<PathBuf> {
    let root = host::repo_root();
    let target = match std::env::var_os("CARGO_TARGET_DIR") {
        // Cargo reads a relative CARGO_TARGET_DIR against its working
        // directory; pin it down before changing directory below.
        Some(dir) => std::env::current_dir()?.join(dir),
        None => root.join("target"),
    };
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["--package", "pdgf", "--bin", "pdgf", "--target-dir"])
        .arg(&target)
        .current_dir(&root)
        .stdin(Stdio::null())
        .output()?;
    if !output.status.success() {
        return Err(format!(
            "building pdgf failed: {}",
            String::from_utf8_lossy(&output.stderr)
        )
        .into());
    }
    let binary = target.join("release/pdgf");
    if !binary.is_file() {
        return Err(format!("{} was not built", binary.display()).into());
    }
    Ok(binary)
}

/// A scratch directory under `benchmark/out/`, removed on drop — on every
/// exit path that unwinds, which is every one short of a kill signal.
pub struct TempDir(PathBuf);

impl TempDir {
    /// Create `benchmark/out/tmp-<pid>-<label>`, emptying a stale one.
    pub fn new(label: &str) -> Res<Self> {
        let path = host::out_dir().join(format!("tmp-{}-{label}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(Self(path))
    }

    /// Take over `path`, which a child process makes, so that it goes
    /// when this value does.
    pub fn adopt(path: PathBuf) -> Self {
        Self(path)
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `pdgf <subcommand>` on the TPC-H model at scale factor `sf`, seeded,
/// with the benchmark's worker count and no standard input.
fn pdgf_command(pdgf: &Path, subcommand: &str, sf: &str, seed: u64) -> Command {
    let mut command = Command::new(pdgf);
    command
        .arg(subcommand)
        .arg("--model")
        .arg(tpch_model())
        .args(["-p", &format!("SF={sf}")])
        .args(["--seed", &seed.to_string()])
        .args(["--workers", &host::workers().to_string()])
        .stdin(Stdio::null());
    command
}

fn generate_command(pdgf: &Path, sf: &str, seed: u64, out: &Path) -> Command {
    let mut command = pdgf_command(pdgf, "generate", sf, seed);
    command.arg("--out").arg(out);
    command
}

/// Run `pdgf generate` on the TPC-H model to completion; returns the wall
/// time from spawn to exit. A non-zero exit is an error carrying stderr.
pub fn generate(pdgf: &Path, sf: &str, seed: u64, out: &Path) -> Res<Duration> {
    let started = Instant::now();
    let output = generate_command(pdgf, sf, seed, out).output()?;
    let wall = started.elapsed();
    if !output.status.success() {
        return Err(format!(
            "pdgf generate failed: {}",
            String::from_utf8_lossy(&output.stderr)
        )
        .into());
    }
    Ok(wall)
}

/// Run `pdgf generate` like [`generate`] and return the peak resident
/// set of the process in MB, read from `/proc` while it runs (the last
/// reading before exit; `VmHWM` only grows, so that is the peak to within
/// one polling interval).
pub fn generate_peak_rss_mb(pdgf: &Path, sf: &str, seed: u64, out: &Path) -> Res<f64> {
    let mut child = generate_command(pdgf, sf, seed, out)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()?;
    let mut peak = None;
    let status = loop {
        peak = host::peak_rss_mb(child.id()).or(peak);
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) => std::thread::sleep(Duration::from_millis(1)),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e.into());
            }
        }
    };
    if !status.success() {
        return Err("pdgf generate failed while its memory was watched".into());
    }
    peak.ok_or_else(|| "pdgf generate exited before /proc could be read".into())
}

/// A `pdgf serve` subprocess over the TPC-H model with both listeners on
/// ports the OS picked. Dropping it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Address of the TCP-protocol listener.
    pub tcp: SocketAddr,
    /// Address of the HTTP listener.
    pub http: SocketAddr,
}

impl Server {
    /// Spawn the server and read its two `listening on` / `http on`
    /// lines. Package size and window stay at the server's defaults.
    pub fn spawn(pdgf: &Path, sf: &str, seed: u64) -> Res<Self> {
        let mut child = pdgf_command(pdgf, "serve", sf, seed)
            .args(["--addr", "127.0.0.1:0", "--http-port", "0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = child.stdout.take().expect("stdout was piped");
        // From here on the child is owned by a value whose drop kills it,
        // so an early return below cannot leak the process.
        let mut server = Self {
            child,
            tcp: SocketAddr::from(([127, 0, 0, 1], 0)),
            http: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut lines = BufReader::new(stdout).lines();
        let mut address = |prefix: &str| -> Res<SocketAddr> {
            let line = lines
                .next()
                .ok_or("pdgf serve exited before announcing its listeners")??;
            let text = line
                .strip_prefix(prefix)
                .ok_or_else(|| format!("expected {prefix:?}, pdgf serve printed {line:?}"))?;
            Ok(text.trim().parse()?)
        };
        server.tcp = address("listening on ")?;
        server.http = address("http on ")?;
        Ok(server)
    }

    /// Process id, for `/proc` readings.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
