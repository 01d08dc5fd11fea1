//! Memory and thread counts of a process, read from `/proc/<pid>/status`.

/// The fields of `/proc/<pid>/status` the benchmark reports.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcStatus {
    /// Peak resident set size (`VmHWM`), KiB.
    pub peak_rss_kb: u64,
    /// Current resident set size (`VmRSS`), KiB.
    pub rss_kb: u64,
    /// Live threads (`Threads`).
    pub threads: u64,
}

/// Parses the text of a `status` file; `None` if a field is missing.
pub fn parse_status(text: &str) -> Option<ProcStatus> {
    let field = |key: &str| -> Option<u64> {
        text.lines()
            .find_map(|line| line.strip_prefix(key)?.strip_prefix(':'))
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|value| value.parse().ok())
    };
    Some(ProcStatus {
        peak_rss_kb: field("VmHWM")?,
        rss_kb: field("VmRSS")?,
        threads: field("Threads")?,
    })
}

/// Reads the status of process `pid`.
pub fn read_status(pid: u32) -> Result<ProcStatus, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    parse_status(&text).ok_or_else(|| format!("{path}: missing VmHWM, VmRSS or Threads"))
}

/// Reads the status of this process.
pub fn read_self() -> Result<ProcStatus, String> {
    read_status(std::process::id())
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "Name:\tmdesc\nUmask:\t0022\nState:\tS (sleeping)\n\
        VmPeak:\t  123456 kB\nVmHWM:\t    4100 kB\nVmRSS:\t    3220 kB\n\
        RssAnon:\t 1000 kB\nThreads:\t5\nSigQ:\t0/63465\n";

    #[test]
    fn status_fields_parse() {
        assert_eq!(
            parse_status(SAMPLE),
            Some(ProcStatus {
                peak_rss_kb: 4100,
                rss_kb: 3220,
                threads: 5
            })
        );
        // `VmRSS` must not be confused with a field that merely starts
        // with the same letters, and a missing field is an error.
        assert_eq!(
            parse_status("VmRSSx:\t1 kB\nVmHWM:\t2 kB\nThreads:\t1\n"),
            None
        );
        assert_eq!(parse_status("VmHWM:\t2 kB\nThreads:\t1\n"), None);
    }

    #[test]
    fn own_status_reports_memory_and_the_threads_we_start() {
        let before = read_self().unwrap();
        assert!(before.rss_kb > 0 && before.peak_rss_kb >= before.rss_kb);
        let (ready_tx, ready_rx) = std::sync::mpsc::channel();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let helper = std::thread::spawn(move || {
            ready_tx.send(()).unwrap();
            done_rx.recv().unwrap();
        });
        ready_rx.recv().unwrap();
        let during = read_self().unwrap();
        done_tx.send(()).unwrap();
        helper.join().unwrap();
        // Other tests may run concurrently, so only a lower bound holds.
        assert!(during.threads >= 2);
        assert!(read_status(u32::MAX).is_err());
    }
}
