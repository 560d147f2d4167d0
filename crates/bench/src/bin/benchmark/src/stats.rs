//! The benchmark's own arithmetic: percentiles, geometric means, peak
//! memory, and the split of a served request's round trip.

/// Nearest-rank percentile (`p` in 0..=100) of an unsorted sample; `0.0`
/// for an empty one.
pub fn percentile(sample: &[f64], p: u32) -> f64 {
    if sample.is_empty() {
        return 0.0;
    }
    let mut sorted = sample.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p as usize * sorted.len()).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Geometric mean of positive values; `0.0` for an empty list or when
/// any value is not positive (a geometric mean is undefined there).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The peak resident set size, in MiB, from a `/proc/<pid>/status`
/// text (its `VmHWM` line, which the kernel reports in kB).
pub fn vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kb: f64 = fields.next()?.parse().ok()?;
    (fields.next()? == "kB").then_some(kb / 1024.0)
}

/// This process's peak resident set size, in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    vm_hwm_mb(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The part of a request's client round trip spent outside the server's
/// admission queue and worker, in microseconds: framing, the socket in
/// both directions, and the connection thread.  The server reports its
/// two parts in whole microseconds, so the result can dip just below
/// zero; it is not clamped, so the three parts always sum to the round
/// trip.
pub fn transport_us(round_trip_us: f64, queue_wait_us: u64, work_us: u64) -> f64 {
    round_trip_us - queue_wait_us as f64 - work_us as f64
}

/// Median of a sample (the nearest-rank p50).
pub fn median(sample: &[f64]) -> f64 {
    percentile(sample, 50)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&sample, 50), 30.0);
        assert_eq!(percentile(&sample, 90), 50.0);
        assert_eq!(percentile(&sample, 0), 10.0);
        assert_eq!(percentile(&sample, 100), 50.0);
        assert_eq!(percentile(&[7.0], 90), 7.0);
        assert_eq!(percentile(&[], 50), 0.0);
        // Ten samples: p90 is the ninth, never an interpolation.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&ten, 90), 9.0);
        assert_eq!(median(&ten), 5.0);
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 8.0, 4.0]) - 4.0).abs() < 1e-12);
        assert!((geomean(&[5.0]) - 5.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[3.0, 0.0]), 0.0);
    }

    #[test]
    fn vm_hwm_parses_the_status_line() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 40000 kB\n";
        assert_eq!(vm_hwm_mb(status), Some(50.0));
        assert_eq!(vm_hwm_mb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(vm_hwm_mb("VmHWM:\t 1 MB\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }

    #[test]
    fn transport_is_what_the_server_did_not_account_for() {
        assert_eq!(transport_us(90_000.5, 30, 10_000), 79_970.5);
        // Whole-microsecond server fields can exceed a fast round trip.
        assert_eq!(transport_us(10.0, 4, 7), -1.0);
        let (rtt, q, w) = (1234.25, 200, 1000);
        assert_eq!(transport_us(rtt, q, w) + q as f64 + w as f64, rtt);
    }
}
