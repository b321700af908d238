//! The benchmark's own statistics: order statistics over run samples,
//! span self time, ratios that refuse a zero base, and `/proc` parsing.

/// A percentile above the median is reported only when at least this
/// many samples lie beyond it; otherwise the tail is unknown, not small.
pub const MIN_BEYOND: usize = 10;

/// A measured value, or the reason it could not be measured.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Num(f64),
    Unavailable(String),
}

impl Value {
    pub fn unavailable(why: &str) -> Value {
        Value::Unavailable(why.to_string())
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::Unavailable(_) => None,
        }
    }
}

/// Median of `samples` (mean of the two middle values for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank `q`-quantile (`0 < q < 1`) of `samples`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie strictly beyond its rank — the
/// p90 of 99 samples would rest on nine values and is not reported.
pub fn tail_quantile(samples: &[f64], q: f64) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then(|| s[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// `num / base`, or unavailable when the base is zero (a ratio of
/// nothing is not 0 and must never print as NaN).
pub fn ratio(num: f64, base: f64) -> Value {
    if base == 0.0 {
        Value::unavailable("zero base")
    } else {
        Value::Num(num / base)
    }
}

/// A closed-open time interval `[start, end)` in nanoseconds.
pub type Interval = (u64, u64);

/// Self time of every interval in `spans`: its duration minus the part
/// of it covered by its children, where a child is a span nested inside
/// it (directly or through an intermediate span) on the same thread.
/// Spans on one thread either nest or are disjoint; the result is in the
/// input order.
pub fn self_times(spans: &[Interval]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    // Parents before their children: earlier start first, and of two
    // spans starting together the longer one encloses the other.
    order.sort_unstable_by_key(|&i| (spans[i].0, std::cmp::Reverse(spans[i].1)));
    let mut out: Vec<u64> = spans.iter().map(|&(s, e)| e.saturating_sub(s)).collect();
    let mut open: Vec<usize> = Vec::new();
    for i in order {
        let (start, end) = spans[i];
        while let Some(&top) = open.last() {
            if spans[top].1 <= start {
                open.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = open.last() {
            // A direct child: charge the part of it inside the parent.
            let covered = end.min(spans[parent].1).saturating_sub(start);
            out[parent] = out[parent].saturating_sub(covered);
        }
        open.push(i);
    }
    out
}

/// The `VmHWM` (peak resident set) line of a `/proc/<pid>/status` file,
/// in kibibytes.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kb = words.next()?.parse().ok()?;
    (words.next() == Some("kB")).then_some(kb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p90_needs_ten_samples_beyond_it() {
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_quantile(&hundred, 0.9), Some(90.0));
        let ninety_nine: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(tail_quantile(&ninety_nine, 0.9), None);
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail_quantile(&thousand, 0.99), Some(990.0));
        assert_eq!(tail_quantile(&thousand, 0.995), None);
        assert_eq!(tail_quantile(&[], 0.5), None);
    }

    #[test]
    fn self_time_subtracts_back_to_back_children() {
        // Parent [0,100) with children [10,30) and [30,50) and a later
        // sibling that is no child of it.
        let spans = [(10, 30), (0, 100), (30, 50), (100, 120)];
        assert_eq!(self_times(&spans), vec![20, 60, 20, 20]);
    }

    #[test]
    fn self_time_charges_only_direct_children() {
        // [0,100) ⊃ [10,60) ⊃ [20,30): the grandchild is charged to the
        // middle span only.
        let spans = [(0, 100), (10, 60), (20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
        // Same start: the longer span is the parent.
        assert_eq!(self_times(&[(5, 8), (5, 20)]), vec![3, 12]);
    }

    #[test]
    fn ratio_with_zero_base_is_unavailable() {
        assert_eq!(ratio(3.0, 4.0), Value::Num(0.75));
        assert!(matches!(ratio(0.0, 0.0), Value::Unavailable(_)));
        assert!(matches!(ratio(5.0, 0.0), Value::Unavailable(_)));
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  123456 kB\nVmHWM:\t    4096 kB\nVmRSS:\t 3000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(4096));
        assert_eq!(parse_vm_hwm_kb("VmRSS:\t 3000 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t 12 MB\n"), None);
        let own = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
        assert!(parse_vm_hwm_kb(&own).expect("own VmHWM") > 0);
    }
}
