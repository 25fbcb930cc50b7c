//! Process CPU time from `/proc/self/stat`.

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`, which
/// Linux fixes at 100 for user space on every architecture).
const TICKS_PER_S: f64 = 100.0;

/// User and system CPU time the whole process (every thread) has used.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// User-mode seconds.
    pub user_s: f64,
    /// Kernel-mode seconds.
    pub sys_s: f64,
}

impl CpuTimes {
    /// This process's times so far; zero when `/proc` is unreadable.
    pub fn now() -> CpuTimes {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|line| parse_stat(&line))
            .unwrap_or_default()
    }

    /// Time used between `earlier` and `self`.
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

/// Parses one `/proc/<pid>/stat` line. The command name (field 2) is
/// parenthesised and may itself hold spaces and parentheses, so fields
/// are counted from the **last** `)`: `utime` and `stime` are fields 14
/// and 15, i.e. the 12th and 13th after it.
pub fn parse_stat(line: &str) -> Option<CpuTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime as f64 / TICKS_PER_S,
        sys_s: stime as f64 / TICKS_PER_S,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_utime_and_stime() {
        let line = "4242 (espread-bench) S 1 4242 4242 0 -1 4194304 900 0 0 0 \
                    1234 567 0 0 20 0 5 0 100 1000000 300 18446744073709551615";
        let t = parse_stat(line).expect("well-formed line");
        assert_eq!(t.user_s, 12.34);
        assert_eq!(t.sys_s, 5.67);
    }

    #[test]
    fn command_names_with_spaces_and_parens_do_not_shift_fields() {
        let line = "7 (a (b) c) R 1 7 7 0 -1 0 0 0 0 0 250 50 0 0 20 0 1 0 9 9 9";
        let t = parse_stat(line).expect("well-formed line");
        assert_eq!((t.user_s, t.sys_s), (2.5, 0.5));
    }

    #[test]
    fn truncated_or_garbled_lines_are_refused() {
        assert_eq!(parse_stat("7 (x) R 1 2 3"), None);
        assert_eq!(parse_stat("no parenthesis here"), None);
        assert_eq!(parse_stat("7 (x) R 1 7 7 0 -1 0 0 0 0 0 ab 50"), None);
    }

    #[test]
    fn this_process_reports_monotone_times() {
        let a = CpuTimes::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = CpuTimes::now();
        assert!(b.since(a).total_s() >= 0.0);
    }
}
