//! Live-server dashboard rendering for the SQL shell's `.top` command.
//!
//! Everything here is a plain line-protocol client of a running
//! [`SqlServer`](joinstudy_sql::SqlServer): each frame issues a handful of
//! `SELECT ... FROM jsys.*` statements (pool gauges, active queries,
//! per-operator progress and the ASH wait-state window) and renders them
//! as one text frame. There is no
//! side channel — if `.top` can show it, so can any SQL client, which is
//! the observability contract DESIGN.md §14 describes.

use joinstudy_sql::server::Client;
use std::collections::BTreeMap;
use std::io;

/// Run `sql` through `client` and parse the framed response into rows of
/// tab-separated fields. The header row is dropped; an `ERR` response
/// becomes an [`io::Error`].
pub fn query_rows(client: &mut Client, sql: &str) -> io::Result<Vec<Vec<String>>> {
    let response = client.query(sql)?;
    if !response.starts_with("OK") {
        return Err(io::Error::other(format!(
            "query failed: {}",
            response.lines().next().unwrap_or("")
        )));
    }
    Ok(response
        .lines()
        .skip(2) // OK header + column names
        .take_while(|l| *l != ".")
        .map(|l| l.split('\t').map(str::to_string).collect())
        .collect())
}

fn cell(row: &[String], i: usize) -> &str {
    row.get(i).map(String::as_str).unwrap_or("")
}

fn num(row: &[String], i: usize) -> i64 {
    cell(row, i).parse().unwrap_or(0)
}

fn fnum(row: &[String], i: usize) -> f64 {
    cell(row, i).parse().unwrap_or(0.0)
}

/// One `jsys.query_progress` row: (query_id, conn, pipeline, stage,
/// rows_in, rows_out, morsels_done, morsels_total, fraction, spill_bytes).
pub type ProgressRow = (i64, i64, String, String, i64, i64, i64, i64, f64, i64);

/// One parsed dashboard frame: everything a render needs, fetched in one
/// burst so the frame is (nearly) a consistent point in time.
#[derive(Debug, Default)]
pub struct Frame {
    /// `jsys.pool` name→value gauges.
    pub pool: BTreeMap<String, i64>,
    /// (conn, state, elapsed_ns, granted_bytes, sql).
    pub active: Vec<(i64, String, i64, i64, String)>,
    /// Live per-operator progress rows.
    pub progress: Vec<ProgressRow>,
    /// wait_state → samples, over the trailing ASH window.
    pub waits: BTreeMap<String, u64>,
    /// Total ASH samples in the window (denominator for percentages).
    pub wait_total: u64,
}

/// Milliseconds of ASH history a frame's wait-state breakdown covers.
pub const ASH_WINDOW_MS: u64 = 5_000;

/// Fetch one frame from a live server.
pub fn fetch(client: &mut Client) -> io::Result<Frame> {
    let mut frame = Frame::default();
    for row in query_rows(client, "SELECT name, value FROM jsys.pool")? {
        frame.pool.insert(cell(&row, 0).to_string(), num(&row, 1));
    }
    for row in query_rows(
        client,
        "SELECT conn, state, elapsed_ns, granted_bytes, sql FROM jsys.active_queries",
    )? {
        frame.active.push((
            num(&row, 0),
            cell(&row, 1).to_string(),
            num(&row, 2),
            num(&row, 3),
            cell(&row, 4).to_string(),
        ));
    }
    for row in query_rows(
        client,
        "SELECT query_id, conn, pipeline, stage, rows_in, rows_out, morsels_done, \
         morsels_total, fraction, spill_bytes FROM jsys.query_progress",
    )? {
        frame.progress.push((
            num(&row, 0),
            num(&row, 1),
            cell(&row, 2).to_string(),
            cell(&row, 3).to_string(),
            num(&row, 4),
            num(&row, 5),
            num(&row, 6),
            num(&row, 7),
            fnum(&row, 8),
            num(&row, 9),
        ));
    }
    let ash = query_rows(client, "SELECT at_ms, wait_state FROM jsys.ash")?;
    let newest = ash.iter().map(|r| num(r, 0)).max().unwrap_or(0);
    for row in &ash {
        if num(row, 0) + ASH_WINDOW_MS as i64 >= newest {
            *frame.waits.entry(cell(row, 1).to_string()).or_default() += 1;
            frame.wait_total += 1;
        }
    }
    Ok(frame)
}

fn mib(bytes: i64) -> f64 {
    bytes as f64 / (1 << 20) as f64
}

fn truncate(s: &str, width: usize) -> String {
    if s.chars().count() <= width {
        s.to_string()
    } else {
        let head: String = s.chars().take(width.saturating_sub(1)).collect();
        format!("{head}…")
    }
}

/// Render one frame as terminal text (no cursor control — callers decide
/// whether to clear the screen between frames).
pub fn render(frame: &Frame, title: &str) -> String {
    let mut out = String::new();
    let g = |k: &str| frame.pool.get(k).copied().unwrap_or(0);
    out.push_str(&format!("joinstudy top — {title}\n"));
    out.push_str(&format!(
        "pool: {} threads, {} active pipelines | admission: {:.0}/{:.0} MiB leased, \
         {} queued, {} admitted\n",
        g("pool.threads"),
        g("pool.active_pipelines"),
        mib(g("admission.total_bytes") - g("admission.available_bytes")),
        mib(g("admission.total_bytes")),
        g("admission.queued"),
        g("admission.admitted"),
    ));

    out.push_str(&format!(
        "wait states (last {} s, {} samples):",
        ASH_WINDOW_MS / 1000,
        frame.wait_total
    ));
    if frame.wait_total == 0 {
        out.push_str(" idle\n");
    } else {
        let mut waits: Vec<(&String, &u64)> = frame.waits.iter().collect();
        waits.sort_by(|a, b| b.1.cmp(a.1));
        for (state, n) in waits {
            out.push_str(&format!(
                "  {state} {:.0}%",
                *n as f64 * 100.0 / frame.wait_total as f64
            ));
        }
        out.push('\n');
    }

    out.push_str("active queries:\n");
    if frame.active.is_empty() {
        out.push_str("  (none)\n");
    }
    for (conn, state, elapsed_ns, granted, sql) in &frame.active {
        out.push_str(&format!(
            "  conn {conn:<3} {state:<8} {:>8.1} ms {:>6.0} MiB  {}\n",
            *elapsed_ns as f64 / 1e6,
            mib(*granted),
            truncate(sql, 60)
        ));
    }

    out.push_str("pipeline progress:\n");
    if frame.progress.is_empty() {
        out.push_str("  (no live pipelines)\n");
    }
    for (qid, conn, pipeline, stage, rows_in, rows_out, done, total, frac, spill) in &frame.progress
    {
        out.push_str(&format!(
            "  q{qid:<4} conn {conn:<3} {:<28} {stage:<6} {rows_in:>10} -> {rows_out:<10} \
             morsels {done}/{total} {:>4.0}%",
            truncate(pipeline, 28),
            frac * 100.0
        ));
        if *spill > 0 {
            out.push_str(&format!("  spill {:.1} MiB", mib(*spill)));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_empty_frame_mentions_idle() {
        let frame = Frame::default();
        let text = render(&frame, "test");
        assert!(text.contains("joinstudy top — test"));
        assert!(text.contains("idle"));
        assert!(text.contains("(none)"));
        assert!(text.contains("(no live pipelines)"));
    }

    #[test]
    fn render_shows_waits_and_progress() {
        let mut frame = Frame::default();
        frame.waits.insert("cpu_probe".into(), 3);
        frame.waits.insert("spill_io".into(), 1);
        frame.wait_total = 4;
        frame.progress.push((
            7,
            1,
            "RJ partition (probe)".into(),
            "source".into(),
            0,
            5000,
            3,
            8,
            0.5,
            2 << 20,
        ));
        let text = render(&frame, "t");
        assert!(text.contains("cpu_probe 75%"), "{text}");
        assert!(text.contains("spill_io 25%"), "{text}");
        assert!(text.contains("RJ partition (probe)"), "{text}");
        assert!(text.contains("morsels 3/8"), "{text}");
        assert!(text.contains("spill 2.0 MiB"), "{text}");
    }
}
