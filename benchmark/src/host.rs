//! What the harness reads from the host and asks of it: process CPU time,
//! peak memory, the host record printed with every run, and a CPU of its own
//! for each side of the connection. Linux only.

use std::fs;
use std::sync::OnceLock;

/// Kernel clock ticks per second as `/proc/*/stat` reports them. `USER_HZ`
/// is fixed at 100 by the Linux ABI on every architecture this runs on.
const USER_HZ: f64 = 100.0;

/// User + system CPU time of a process, in seconds, from the contents of
/// its `/proc/<pid>/stat`. The command name (field 2) may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14, 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// `VmHWM` (peak resident set) in MiB from the contents of
/// `/proc/<pid>/status`.
pub fn parse_status_vmhwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// One-minute load average from the contents of `/proc/loadavg`.
pub fn parse_load1(loadavg: &str) -> Option<f64> {
    loadavg.split_ascii_whitespace().next()?.parse().ok()
}

/// CPU seconds (user + system, all threads) this process has used.
pub fn process_cpu_seconds() -> f64 {
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_seconds(&s))
        .expect("/proc/self/stat is readable and well-formed on Linux")
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_vmhwm_mib(&s))
        .expect("/proc/self/status carries VmHWM on Linux")
}

/// `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    // glibc: int sched_getaffinity(pid_t, size_t, cpu_set_t *);
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    // glibc: int sched_setaffinity(pid_t, size_t, const cpu_set_t *);
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is a live, writable `cpu_set_t` of exactly the size
    // passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
    if rc != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|cpu| set[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Restrict the calling thread to `cpu`; threads it spawns inherit that.
fn pin_current_thread(cpu: usize) -> bool {
    let mut set: CpuSet = [0; 16];
    set[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `set` is a live `cpu_set_t` of exactly the size passed; pid 0
    // names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) == 0 }
}

/// The CPUs the two sides of a connection run on: `(client, server)`, the
/// first two CPUs this process is allowed. `None` on a one-CPU host.
///
/// The paper's client and server are two machines, so each side has a CPU
/// to itself and every hand-off crosses CPUs. Left to itself the kernel
/// sometimes stacks both threads on one CPU (cheap hand-offs, no
/// parallelism) and sometimes spreads them, and stays with its choice for
/// a minute at a time: a 25 % step in every timing that has nothing to do
/// with the code. Pinning makes every run measure the same placement.
fn cpu_plan() -> Option<(usize, usize)> {
    static PLAN: OnceLock<Option<(usize, usize)>> = OnceLock::new();
    *PLAN.get_or_init(|| match allowed_cpus()[..] {
        [client, server, ..] => Some((client, server)),
        _ => None,
    })
}

/// Pin the calling thread to the client's CPU; `false` when the host has
/// one CPU or refuses.
fn pin_client_thread() -> bool {
    cpu_plan().is_some_and(|(client, _)| pin_current_thread(client))
}

/// Run `f` with the calling (client) thread moved to the server's CPU, so
/// that every thread spawned inside inherits it, then move back.
pub fn on_server_cpu<T>(f: impl FnOnce() -> T) -> T {
    let Some((client, server)) = cpu_plan() else {
        return f();
    };
    let moved = pin_current_thread(server);
    let out = f();
    if moved {
        pin_current_thread(client);
    }
    out
}

/// The host a result was measured on.
#[derive(Debug, Clone)]
pub struct HostRecord {
    pub nproc: usize,
    pub load1: f64,
    pub kernel: String,
    /// Client and server threads each have a CPU to themselves.
    pub pinned: bool,
}

impl HostRecord {
    /// Read the host's state and pin the calling thread as the client.
    pub fn read_and_pin() -> HostRecord {
        HostRecord {
            // Counted before pinning: afterwards this thread sees one CPU.
            nproc: std::thread::available_parallelism().map_or(1, usize::from),
            pinned: pin_client_thread(),
            load1: fs::read_to_string("/proc/loadavg")
                .ok()
                .and_then(|s| parse_load1(&s))
                .unwrap_or(0.0),
            kernel: fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
        }
    }

    /// Other work was already competing for the CPUs when the run began,
    /// so its timings measure the host as much as the code.
    pub fn unreliable(&self) -> bool {
        self.load1 > self.nproc as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_cpu_time_survives_a_hostile_command_name() {
        let stat = "4242 (zc bench) R) S 1 4242 4242 0 -1 4194304 1234 0 0 0 \
                    731 269 0 0 20 0 3 0 123456 1000000 200 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(10.0));
        assert_eq!(parse_stat_cpu_seconds("1 (x) R 1 2"), None);
        assert_eq!(parse_stat_cpu_seconds("no parens"), None);
    }

    #[test]
    fn status_peak_rss_is_read_in_mib() {
        let status = "Name:\tbench\nVmPeak:\t  999999 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_status_vmhwm_mib(status), Some(20.0));
        assert_eq!(parse_status_vmhwm_mib("Name:\tbench\n"), None);
    }

    #[test]
    fn loadavg_first_field_and_the_unreliable_flag() {
        assert_eq!(parse_load1("2.50 1.00 0.50 3/200 4242\n"), Some(2.5));
        assert_eq!(parse_load1(""), None);
        let mut host = HostRecord {
            nproc: 2,
            load1: 2.5,
            kernel: "test".into(),
            pinned: false,
        };
        assert!(host.unreliable());
        host.load1 = 2.0;
        assert!(!host.unreliable());
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(process_cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
    }

    #[test]
    fn threads_spawned_on_the_server_cpu_stay_there() {
        // Own thread: the pin must not leak into other tests.
        std::thread::spawn(|| {
            let cpus = allowed_cpus().len();
            let host = HostRecord::read_and_pin();
            assert_eq!(host.nproc, cpus.max(1));
            let Some((client, server)) = cpu_plan() else {
                assert!(!host.pinned);
                return;
            };
            assert!(host.pinned);
            assert_eq!(allowed_cpus(), vec![client]);
            let spawned = on_server_cpu(|| std::thread::spawn(allowed_cpus));
            assert_eq!(allowed_cpus(), vec![client]);
            assert_eq!(spawned.join().unwrap(), vec![server]);
        })
        .join()
        .unwrap();
    }
}
