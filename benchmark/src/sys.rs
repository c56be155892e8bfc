//! Process hygiene: CPU pinning, process CPU time, peak RSS, steal ticks
//! and the filesystem type under a directory. Linux only; every reading
//! comes from a syscall or `/proc`.

use std::path::Path;
use std::time::Duration;

use std::ffi::CString;
use std::os::unix::ffi::OsStrExt;

/// Bytes in glibc's `cpu_set_t` (1024 CPUs).
const CPU_SET_BYTES: usize = 128;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const M_ARENA_MAX: i32 = -8;
const CLONE_NEWNS: i32 = 0x0002_0000;
const CLONE_NEWUSER: i32 = 0x1000_0000;
const MS_NOSUID: u64 = 2;
const MS_NODEV: u64 = 4;
const MS_REC: u64 = 1 << 14;
const MS_PRIVATE: u64 = 1 << 18;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
    fn unshare(flags: i32) -> i32;
    fn mount(
        source: *const std::ffi::c_char,
        target: *const std::ffi::c_char,
        fstype: *const std::ffi::c_char,
        flags: u64,
        data: *const std::ffi::c_void,
    ) -> i32;
    fn geteuid() -> u32;
    fn getegid() -> u32;
}

fn check(rc: i32) -> std::io::Result<()> {
    if rc == 0 {
        Ok(())
    } else {
        Err(std::io::Error::last_os_error())
    }
}

/// Makes every thread allocate from one malloc arena. On one pinned CPU
/// more arenas add no parallelism, and which thread opens which arena
/// depends on preemption timing, so peak RSS would vary run to run.
/// Call before any thread starts.
pub fn one_malloc_arena() {
    // SAFETY: `mallopt` takes two plain integers and only adjusts
    // allocator tunables; no thread exists yet to race with it.
    unsafe { mallopt(M_ARENA_MAX, 1) };
}

/// Mounts a tmpfs over `dir`, visible to this process only: the process
/// enters a new user and mount namespace first, so nothing outside it
/// sees the mount, and the tmpfs and its contents vanish when the
/// process exits. `dir` must exist. Must run while the process has one
/// thread.
///
/// # Errors
/// The OS error when the kernel refuses a namespace or the mount.
pub fn private_tmpfs(dir: &Path) -> std::io::Result<()> {
    // SAFETY: plain getters without arguments.
    let (uid, gid) = unsafe { (geteuid(), getegid()) };
    // SAFETY: `unshare` takes flags only; the caller guarantees a single
    // thread, which a new user namespace requires.
    check(unsafe { unshare(CLONE_NEWUSER | CLONE_NEWNS) })?;
    // Keep this process's own ids inside the namespace.
    std::fs::write("/proc/self/setgroups", "deny")?;
    std::fs::write("/proc/self/uid_map", format!("{uid} {uid} 1"))?;
    std::fs::write("/proc/self/gid_map", format!("{gid} {gid} 1"))?;
    let root = CString::new("/").expect("no interior NUL");
    let target = CString::new(dir.as_os_str().as_bytes())
        .map_err(|_| std::io::Error::other("directory name holds a NUL byte"))?;
    let tmpfs = CString::new("tmpfs").expect("no interior NUL");
    let data = CString::new("mode=0700").expect("no interior NUL");
    // SAFETY: every pointer is a NUL-terminated string alive for the call
    // or null where mount(2) allows it; this remount only changes
    // propagation, so the tmpfs below cannot leak to the parent namespace.
    check(unsafe {
        mount(
            std::ptr::null(),
            root.as_ptr(),
            std::ptr::null(),
            MS_REC | MS_PRIVATE,
            std::ptr::null(),
        )
    })?;
    // SAFETY: as above; `data` is the tmpfs option string.
    check(unsafe {
        mount(
            tmpfs.as_ptr(),
            target.as_ptr(),
            tmpfs.as_ptr(),
            MS_NOSUID | MS_NODEV,
            data.as_ptr().cast(),
        )
    })
}

/// Pins the calling thread, and every thread it spawns later, to one CPU:
/// the highest-numbered CPU the process may run on. Call before any
/// thread starts so that the whole process shares that CPU.
///
/// # Errors
/// The OS error when the affinity cannot be read or set.
pub fn pin_to_one_cpu() -> std::io::Result<usize> {
    let mut mask = [0u8; CPU_SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, CPU_SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..CPU_SET_BYTES * 8)
        .rev()
        .find(|&c| mask[c / 8] & (1 << (c % 8)) != 0)
        .ok_or_else(|| std::io::Error::other("empty CPU affinity mask"))?;
    let mut one = [0u8; CPU_SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly `CPU_SET_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, CPU_SET_BYTES, one.as_ptr()) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

/// User plus system CPU time of the whole process so far.
#[must_use]
pub fn process_cpu() -> Duration {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "CLOCK_PROCESS_CPUTIME_ID is always available on Linux");
    Duration::new(ts.tv_sec.unsigned_abs(), u32::try_from(ts.tv_nsec).unwrap_or(0))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Steal ticks from `/proc/stat`: all CPUs, and the CPU `cpu` (0 for
/// none).
#[must_use]
pub fn steal_ticks(cpu: Option<usize>) -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let steal = |label: &str| {
        stat.lines()
            .find(|l| l.split_whitespace().next() == Some(label))
            .and_then(|l| l.split_whitespace().nth(8))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (steal("cpu"), cpu.map_or(0, |c| steal(&format!("cpu{c}"))))
}

/// CPUs online, as `/proc/stat` lists them.
#[must_use]
pub fn online_cpus() -> usize {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count()
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/self/mounts`).
#[must_use]
pub fn fs_type(dir: &Path) -> String {
    let dir = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point).then(|| (point.len(), kind.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}
