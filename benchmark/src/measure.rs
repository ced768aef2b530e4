//! Measurement helpers: process CPU time and peak memory read from
//! `/proc/self`, and the order statistics every metric is built from.

use std::fs;

/// Ticks per second of the time fields in `/proc/<pid>/stat`. Linux
/// fixes this (`USER_HZ`) at 100 for every userspace-visible interface,
/// whatever the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time of the whole process (every thread, live
/// or exited), in seconds, at 10 ms resolution.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    parse_cpu_seconds(&stat).ok_or_else(|| "/proc/self/stat: unexpected layout".to_owned())
}

/// Parses `utime + stime` out of a `/proc/<pid>/stat` line.
///
/// Field 2 is the command name in parentheses and may itself hold
/// spaces or `)`, so fields are counted from the last `)`: the token
/// after it is field 3 (state), making utime and stime (fields 14 and
/// 15) the 12th and 13th tokens.
pub fn parse_cpu_seconds(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Peak resident set size of the process (`VmHWM`), in MiB.
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks
/// the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    parse_vm_hwm_kb(&status)
        .map(|kb| kb as f64 / 1024.0)
        .ok_or_else(|| "/proc/self/status: no VmHWM line".to_owned())
}

/// Parses the `VmHWM:  <n> kB` line of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..]
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count); NaN
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A latency tail: the value, which percentile it is, and the sample
/// count it was read from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample value at the percentile.
    pub value: f64,
    /// Share of samples at or below `value`, in percent.
    pub percentile: f64,
    /// Number of samples.
    pub samples: usize,
}

/// Samples that must lie strictly above a tail value for the sample to
/// support it.
pub const TAIL_SUPPORT: usize = 10;

/// The highest percentile a tail is read at. Above it, the open-loop
/// tail of a 20-second run on a shared 2-core host varied by more than
/// a quarter between runs (p98 of 600 jobs: 31–42% quartile spread over
/// ten seeds), so no fixed regression bound could hold it.
pub const TAIL_CAP_PCT: f64 = 90.0;

/// The highest percentile, at most [`TAIL_CAP_PCT`], that has at least
/// [`TAIL_SUPPORT`] samples strictly beyond it.
///
/// With ties the value steps down to the largest sample still strictly
/// below the tenth-largest one. When no sample qualifies (ten or fewer
/// samples, or every candidate tied with the top ten) the sample
/// supports no tail above the middle, and the median is returned as
/// the 50th percentile. `percentile` is the share of samples at or
/// below the returned value.
pub fn tail(values: &[f64]) -> Tail {
    let v = sorted(values);
    let n = v.len();
    if n > TAIL_SUPPORT {
        let tenth_largest = v[n - TAIL_SUPPORT];
        let cap = ((TAIL_CAP_PCT / 100.0 * n as f64).floor() as usize).max(1) - 1;
        if let Some(i) = v.iter().rposition(|&x| x < tenth_largest) {
            let value = v[i.min(cap)];
            let at_or_below = v.iter().filter(|&&x| x <= value).count();
            return Tail {
                value,
                percentile: 100.0 * at_or_below as f64 / n as f64,
                samples: n,
            };
        }
    }
    Tail {
        value: median(&v),
        percentile: 50.0,
        samples: n,
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default "exclusive" method), so spreads printed here match
/// spreads computed from the same numbers in Python. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld as i64 + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4i64) {
        let j = (i * m / 4).clamp(1, ld as i64 - 1);
        // Negative at the clamped ends, where Python extrapolates.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (srm-bench) R 1 4242 4242 0 -1 4194304 900 0 0 0 \
                        1234 56 0 0 20 0 5 0 7777 10000000 2500 18446744073709551615";

    #[test]
    fn cpu_time_is_utime_plus_stime_in_ticks() {
        assert_eq!(parse_cpu_seconds(STAT), Some(12.9));
    }

    #[test]
    fn cpu_time_survives_spaces_and_parens_in_the_process_name() {
        let odd = STAT.replace("(srm-bench)", "(a b) c) d)");
        assert_eq!(parse_cpu_seconds(&odd), Some(12.9));
    }

    #[test]
    fn malformed_stat_lines_parse_to_none() {
        assert_eq!(parse_cpu_seconds("no parens here"), None);
        assert_eq!(parse_cpu_seconds("1 (x) R 1 2"), None);
        assert_eq!(parse_cpu_seconds(&STAT.replace("1234", "12x4")), None);
    }

    #[test]
    fn own_process_counters_are_readable() {
        let cpu = cpu_seconds().unwrap();
        assert!(cpu >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tsrm\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("VmRSS: 1 kB\n"), None);
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let values: Vec<f64> = (1..=30).map(f64::from).collect();
        let t = tail(&values);
        assert_eq!(t.value, 20.0);
        assert_eq!(t.samples, 30);
        assert!((t.percentile - 200.0 / 3.0).abs() < 1e-9);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&hundred);
        assert_eq!((t.value, t.percentile), (90.0, 90.0));
        // Beyond 100 samples the cap binds before the support rule.
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&big);
        assert_eq!((t.value, t.percentile), (900.0, 90.0));
    }

    #[test]
    fn tail_of_at_most_ten_samples_is_the_median() {
        for n in 0..=10 {
            let values: Vec<f64> = (1..=n).map(f64::from).collect();
            let t = tail(&values);
            assert_eq!(t.percentile, 50.0, "n = {n}");
            assert_eq!(t.samples, n as usize);
            if n > 0 {
                assert_eq!(t.value, median(&values));
            }
        }
        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&eleven).value, 1.0);
    }

    #[test]
    fn tail_steps_below_ties_with_the_top_ten() {
        // 20 samples: 1..=8, then twelve 9s. The tenth largest is 9, so
        // the tail is the largest value strictly below it.
        let mut values: Vec<f64> = (1..=8).map(f64::from).collect();
        values.extend(std::iter::repeat_n(9.0, 12));
        let t = tail(&values);
        assert_eq!(t.value, 8.0);
        assert_eq!(t.percentile, 40.0);
        // All tied: no value has ten samples strictly beyond it.
        let flat = vec![5.0; 40];
        assert_eq!(tail(&flat).percentile, 50.0);
        assert_eq!(tail(&flat).value, 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some([1.5, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
