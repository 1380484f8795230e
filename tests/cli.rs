//! End-to-end tests of the `bags-cpd` CLI binary.

use std::io::Write;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_bags-cpd"))
}

/// Write a bag CSV with a shape change at `change_at`.
fn write_test_csv(path: &std::path::Path, steps: usize, change_at: usize) {
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(f, "t,x").expect("header");
    for t in 0..steps {
        for i in 0..60 {
            let u = (i as f64 + 0.5) / 60.0 - 0.5;
            let x = if t < change_at {
                u
            } else {
                6.0 * u.signum() + u
            };
            writeln!(f, "{t},{x}").expect("row");
        }
    }
}

#[test]
fn detects_change_in_csv_input() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_test1");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("bags.csv");
    write_test_csv(&input, 24, 12);

    let out = bin()
        .arg(&input)
        .args(["--tau", "5", "--tau-prime", "5", "--seed", "7"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("t,score,ci_lo,ci_up,alert"));
    // An alert row near t = 12 must exist.
    let alert_near_12 = stdout.lines().any(|l| {
        let mut parts = l.split(',');
        let t: Option<i64> = parts.next().and_then(|v| v.parse().ok());
        let alert = l.ends_with(",1");
        matches!(t, Some(t) if (t - 12).abs() <= 2) && alert
    });
    assert!(alert_near_12, "no alert near t=12 in:\n{stdout}");
}

#[test]
fn writes_output_file() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_test2");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("bags.csv");
    let output = dir.join("scores.csv");
    write_test_csv(&input, 20, 10);

    let st = bin()
        .arg(&input)
        .args(["--output"])
        .arg(&output)
        .args(["--histogram", "0.5"])
        .status()
        .expect("binary runs");
    assert!(st.success());
    let text = std::fs::read_to_string(&output).expect("output written");
    assert!(text.starts_with("t,score,ci_lo,ci_up,xi,alert"));
    assert!(text.lines().count() > 5);
}

#[test]
fn rejects_missing_input() {
    let out = bin().output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn rejects_bad_csv() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_test3");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("bad.csv");
    std::fs::write(&input, "t,x\n0,1.0\n0,not_a_number\n").expect("write");
    let out = bin().arg(&input).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("bad coordinate"));
}

#[test]
fn rejects_unknown_flag() {
    let out = bin()
        .args(["x.csv", "--frobnicate"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn follow_mode_streams_points_and_alerts() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_follow1");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("bags.csv");
    write_test_csv(&input, 24, 12);

    let out = bin()
        .arg("follow")
        .arg(&input)
        .args(["--tau", "5", "--tau-prime", "5", "--seed", "7"])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("t,score,ci_lo,ci_up,alert"));
    let alert_near_12 = stdout.lines().any(|l| {
        let t: Option<i64> = l.split(',').next().and_then(|v| v.parse().ok());
        matches!(t, Some(t) if (t - 12).abs() <= 2) && l.ends_with(",1")
    });
    assert!(alert_near_12, "no alert near t=12 in:\n{stdout}");

    // Same numbers as batch mode on the same file (the online path is
    // bit-identical to batch analysis).
    let batch = bin()
        .arg(&input)
        .args(["--tau", "5", "--tau-prime", "5", "--seed", "7"])
        .output()
        .expect("binary runs");
    assert_eq!(
        String::from_utf8_lossy(&batch.stdout),
        stdout,
        "follow and batch must agree"
    );
}

#[test]
fn rejects_bad_solver_values() {
    // The exact simplex is the only solver, so the `--solver` flag is
    // gone: every value, including the old spellings, is an unknown
    // option.
    let dir = std::env::temp_dir().join("bags_cpd_cli_solver");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("bags.csv");
    write_test_csv(&input, 8, 4);

    for value in ["exact", "sinkhorn", "tiered", "tiered:0.05", "frobnicate"] {
        let out = bin()
            .arg(&input)
            .args(["--solver", value])
            .output()
            .expect("binary runs");
        assert_eq!(
            out.status.code(),
            Some(2),
            "--solver {value} must be rejected"
        );
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown option --solver"),
            "--solver {value}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}

#[test]
fn follow_mode_reads_stdin() {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = bin()
        .args([
            "follow",
            "-",
            "--tau",
            "3",
            "--tau-prime",
            "2",
            "--replicates",
            "50",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        writeln!(stdin, "t,x").unwrap();
        for t in 0..8 {
            for i in 0..30 {
                writeln!(stdin, "{t},{}", (i % 5) as f64 * 0.1).unwrap();
            }
        }
    } // closing stdin ends the stream
    let out = child.wait_with_output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // 8 bags, window 5 -> points t = 3..=6.
    assert_eq!(
        stdout.lines().count(),
        1 + 4,
        "header plus 4 points:\n{stdout}"
    );
}

#[test]
fn follow_mode_checkpoint_resume_is_identical() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_follow2");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let full = dir.join("full.csv");
    write_test_csv(&full, 20, 10);

    // Split the same data at t = 9 into two sessions.
    let text = std::fs::read_to_string(&full).expect("read");
    let (part1, part2): (Vec<&str>, Vec<&str>) = text
        .lines()
        .skip(1)
        .partition(|l| l.split(',').next().unwrap().parse::<i64>().unwrap() < 9);
    // Trailing newlines matter: a checkpointing session holds back a
    // final line with no newline as possibly mid-write.
    std::fs::write(dir.join("part1.csv"), part1.join("\n") + "\n").unwrap();
    std::fs::write(dir.join("part2.csv"), part2.join("\n") + "\n").unwrap();

    let state = dir.join("ck.snap");
    let reference_state = dir.join("ref.snap");
    let args = [
        "--tau",
        "4",
        "--tau-prime",
        "3",
        "--replicates",
        "60",
        "--seed",
        "3",
    ];
    let run = |input: &std::path::Path, state: &std::path::Path| -> String {
        let out = bin()
            .arg("follow")
            .arg(input)
            .args(args)
            .arg("--state")
            .arg(state)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // Reference: one uninterrupted checkpointing session (a fresh state
    // file, so it holds back the trailing bag exactly like the split
    // sessions do).
    let uninterrupted = run(&full, &reference_state);
    let first = run(&dir.join("part1.csv"), &state);
    assert!(state.exists(), "checkpoint written on EOF");
    let second = run(&dir.join("part2.csv"), &state);

    let resumed: Vec<&str> = first
        .lines()
        .chain(second.lines().skip(1)) // drop the second header
        .collect();
    let expected: Vec<&str> = uninterrupted.lines().collect();
    assert_eq!(expected, resumed, "interrupted session must lose nothing");
}

#[test]
fn follow_mode_resume_over_same_grown_file_skips_processed_rows() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_follow3");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("grow.csv");
    let state = dir.join("ck.snap");
    let reference_state = dir.join("ref.snap");
    let args = [
        "--tau",
        "4",
        "--tau-prime",
        "3",
        "--replicates",
        "60",
        "--seed",
        "3",
    ];
    let run = |state: &std::path::Path| -> String {
        let out = bin()
            .arg("follow")
            .arg(&input)
            .args(args)
            .arg("--state")
            .arg(state)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // Session 1 sees 14 complete bags plus a *partially written* bag
    // for t = 14 (the producer was cut off mid-bag): the reviewer's
    // nightmare input for naive time-based skipping.
    write_test_csv(&input, 14, 10);
    {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&input)
            .expect("append");
        for i in 0..30 {
            let u = (i as f64 + 0.5) / 60.0 - 0.5;
            writeln!(f, "14,{}", 6.0 * u.signum() + u).expect("row");
        }
    }
    let first = run(&state);

    // Re-feeding the unchanged file must emit nothing new (every row is
    // either from an already-pushed bag or already buffered as the
    // pending bag) and must not corrupt state.
    let rerun = run(&state);
    assert_eq!(rerun.lines().count(), 1, "header only:\n{rerun}");

    // The file grows in place; session 2 picks up only the new rows —
    // including completing the bag that was mid-accumulation at the
    // first session's EOF.
    write_test_csv(&input, 20, 10);
    let second = run(&state);

    let resumed: Vec<&str> = first.lines().chain(second.lines().skip(1)).collect();
    let uninterrupted = run(&reference_state);
    let expected: Vec<&str> = uninterrupted.lines().collect();
    assert_eq!(expected, resumed, "grown-file resume must lose nothing");
}

#[test]
fn follow_mode_resume_continues_rotated_input_and_warns_on_seed_change() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_follow4");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("log.csv");
    let state = dir.join("ck.snap");

    // Session 1: 6 complete bags plus half of bag 6 (cut mid-write).
    let mut body = String::from("t,x\n");
    for t in 0..6 {
        for i in 0..20 {
            body.push_str(&format!("{t},{}\n", (i % 5) as f64 * 0.1));
        }
    }
    // Bag 6's rows are position-distinct so a continuation is
    // distinguishable from a re-feed.
    for i in 0..10 {
        body.push_str(&format!("6,{}\n", i as f64 * 0.01));
    }
    std::fs::write(&input, &body).unwrap();
    let out = bin()
        .arg("follow")
        .arg(&input)
        .args([
            "--tau",
            "3",
            "--tau-prime",
            "2",
            "--replicates",
            "40",
            "--seed",
            "1",
        ])
        .arg("--state")
        .arg(&state)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // "Rotated" input: the file now starts with the *new* rows of the
    // pending time (not a re-feed of the buffered ones). They must be
    // treated as a continuation of the pending bag — with a note — not
    // rejected and not silently skipped.
    let mut rotated = String::new();
    for i in 10..20 {
        rotated.push_str(&format!("6,{}\n", i as f64 * 0.01));
    }
    for i in 0..20 {
        rotated.push_str(&format!("7,{}\n", (i % 5) as f64 * 0.1));
    }
    std::fs::write(&input, &rotated).unwrap();
    let out = bin()
        .arg("follow")
        .arg(&input)
        .args([
            "--tau",
            "3",
            "--tau-prime",
            "2",
            "--replicates",
            "40",
            "--seed",
            "2",
        ])
        .arg("--state")
        .arg(&state)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(
        stderr.contains("is not the checkpointed input"),
        "stderr: {stderr}"
    );
    // Bag 6 completed (10 buffered + 10 continuation rows), so the 7-bag
    // stream emits points t = 3, 4, 5 across both sessions; session 1
    // (6 complete bags) already emitted t = 3, 4.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "header + point t=5:\n{stdout}");
    assert!(stdout.lines().nth(1).unwrap().starts_with("5,"));
    // The changed --seed is surfaced, not silently ignored...
    assert!(stderr.contains("--seed 2 ignored"), "stderr: {stderr}");

    // ...but omitting --seed on resume (falling back to the default 42)
    // must NOT warn: the user expressed no conflicting intent.
    std::fs::write(&input, "8,0.1\n8,0.2\n").unwrap();
    let out = bin()
        .arg("follow")
        .arg(&input)
        .args(["--tau", "3", "--tau-prime", "2", "--replicates", "40"])
        .arg("--state")
        .arg(&state)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "stderr: {stderr}");
    assert!(!stderr.contains("ignored"), "spurious warning: {stderr}");
}

#[test]
fn follow_mode_resume_rebuilds_pending_bag_when_history_is_re_presented() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_follow5");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("rw.csv");
    let state = dir.join("ck.snap");
    let reference_state = dir.join("ref.snap");
    let args = ["--tau", "2", "--tau-prime", "2", "--replicates", "30"];
    let run = |state: &std::path::Path| -> (String, String) {
        let out = bin()
            .arg("follow")
            .arg(&input)
            .args(args)
            .arg("--state")
            .arg(state)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };

    let history = "t,x\n0,0.1\n0,0.2\n1,0.1\n1,0.2\n2,0.1\n2,0.2\n3,0.1\n3,0.2\n4,0.5\n";
    std::fs::write(&input, history).unwrap();
    let (first, _) = run(&state);

    // The producer atomically *rewrites* the file: full history again
    // (including the buffered pending row for t = 4) plus new data,
    // but without the header this time, so the byte prefix differs.
    // The hash mismatch routes this through the rotated path, and the
    // re-presented history must trigger a pending-bag rebuild instead
    // of double-counting the buffered row.
    let body = history.strip_prefix("t,x\n").unwrap();
    std::fs::write(&input, format!("{body}4,0.6\n5,0.1\n5,0.2\n")).unwrap();
    let (second, stderr) = run(&state);
    assert!(
        stderr.contains("re-presents already-processed times"),
        "stderr: {stderr}"
    );

    let resumed: Vec<&str> = first.lines().chain(second.lines().skip(1)).collect();
    let (uninterrupted, _) = run(&reference_state);
    let expected: Vec<&str> = uninterrupted.lines().collect();
    assert_eq!(
        expected, resumed,
        "rewritten-input resume must not double-count"
    );
}

#[test]
fn follow_mode_resume_rejects_corrupt_line_at_resume_point() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_follow6");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("c.csv");
    let state = dir.join("ck.snap");
    let args = ["--tau", "2", "--tau-prime", "2", "--replicates", "30"];

    std::fs::write(&input, "t,x\n0,0.1\n0,0.2\n1,0.1\n").unwrap();
    let out = bin()
        .arg("follow")
        .arg(&input)
        .args(args)
        .arg("--state")
        .arg(&state)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // Corruption at the resume point is data, not a "header": it must
    // error with the absolute file line, not be silently swallowed.
    let mut grown = std::fs::read_to_string(&input).unwrap();
    grown.push_str("garbage,9.9\n2,3.0\n");
    std::fs::write(&input, grown).unwrap();
    let out = bin()
        .arg("follow")
        .arg(&input)
        .args(args)
        .arg("--state")
        .arg(&state)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(":5: bad time 'garbage'"),
        "stderr: {stderr}"
    );
}

#[test]
fn follow_mode_rejects_backwards_time() {
    use std::io::Write as _;
    use std::process::Stdio;
    let mut child = bin()
        .args(["follow", "-"])
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary spawns");
    {
        let stdin = child.stdin.as_mut().expect("stdin piped");
        writeln!(stdin, "5,1.0\n5,1.1\n4,0.9").unwrap();
    }
    let out = child.wait_with_output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("time went backwards"));
}

/// A `--state` file in the retired single-source `BCPDFLW1` layout is
/// refused with one clear error, never misread, and left untouched.
#[test]
fn follow_mode_refuses_a_bcpdflw1_state_file() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_bcpdflw1");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let csv = dir.join("in.csv");
    write_test_csv(&csv, 12, 6);
    let state = dir.join("ck.snap");
    let run = || {
        bin()
            .arg("follow")
            .arg(&csv)
            .args(["--tau", "3", "--tau-prime", "2", "--replicates", "50"])
            .arg("--state")
            .arg(&state)
            .output()
            .expect("binary runs")
    };
    assert!(run().status.success());

    let mut bytes = std::fs::read(&state).expect("checkpoint written");
    assert_eq!(&bytes[..8], b"BCPDFLW2");
    bytes[..8].copy_from_slice(b"BCPDFLW1");
    std::fs::write(&state, &bytes).unwrap();

    let out = run();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(
            "not a bags-cpd checkpoint (expected BCPDFLW2; BCPDFLW1 files from older builds \
             are no longer read)"
        ),
        "stderr: {stderr}"
    );
    assert_eq!(std::fs::read(&state).unwrap(), bytes, "file left untouched");
}

/// Write one serve-mode sensor CSV (change at `change_at` when `shift`).
fn write_sensor_csv(path: &std::path::Path, bags: usize, change_at: usize, shift: bool) {
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(f, "t,x").expect("header");
    for t in 0..bags {
        for i in 0..24 {
            let u = (i as f64 + 0.5) / 24.0 - 0.5;
            let x = if shift && t >= change_at {
                5.0 * u.signum() + u
            } else {
                u
            };
            writeln!(f, "{t},{x}").expect("row");
        }
    }
}

/// Acceptance: serve ingests >= 64 concurrent sources including TCP,
/// with periodic checkpoints, quarantining bad streams instead of
/// dying.
#[test]
fn serve_mode_64_sources_with_tcp_periodic_checkpoints_and_quarantine() {
    use std::io::Write as _;
    let dir = std::env::temp_dir().join("bags_cpd_cli_serve64");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("src");
    std::fs::create_dir_all(&src).expect("tmp dir");
    for s in 0..62 {
        write_sensor_csv(&src.join(format!("f{s:02}.csv")), 9, 5, s % 7 == 0);
    }
    // One poisoned file: must quarantine, not kill the fleet.
    std::fs::write(src.join("poison.csv"), "t,x\n0,0.1\n0,oops\n").unwrap();
    let state = dir.join("fleet.snap");

    let mut child = bin()
        .arg("serve")
        .arg("--dir")
        .arg(&src)
        .args(["--listen", "127.0.0.1:0"])
        .args(["--tau", "3", "--tau-prime", "2", "--replicates", "30"])
        .arg("--state")
        .arg(&state)
        .args(["--checkpoint-bags", "64"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");

    // Find the bound port from stderr without consuming the rest.
    let mut stderr = child.stderr.take().expect("piped");
    let port = {
        use std::io::Read as _;
        let mut buf = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            assert_ne!(stderr.read(&mut byte).unwrap(), 0, "stderr closed early");
            buf.push(byte[0]);
            if byte[0] == b'\n' {
                let line = String::from_utf8_lossy(&buf).into_owned();
                if let Some(rest) = line.strip_prefix("listening on 127.0.0.1:") {
                    break rest
                        .split_whitespace()
                        .next()
                        .unwrap()
                        .parse::<u16>()
                        .expect("port");
                }
                buf.clear();
            }
        }
    };
    // Two extra TCP streams -> 62 + 1 (quarantined) + 2 = 65 sources.
    let mut sock = std::net::TcpStream::connect(("127.0.0.1", port)).expect("connect to serve");
    for t in 0..9 {
        for i in 0..20 {
            writeln!(sock, "net-a,{t},{}", (i % 5) as f64 * 0.1).unwrap();
            writeln!(sock, "net-b,{t},{}", (i % 4) as f64 * 0.2).unwrap();
        }
    }
    drop(sock); // drain mode: serve exits once every source is done

    let out = child.wait_with_output().expect("binary runs");
    let mut err_tail = String::new();
    {
        use std::io::Read as _;
        stderr.read_to_string(&mut err_tail).unwrap();
    }
    assert!(out.status.success(), "stderr: {err_tail}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("stream,t,score,ci_lo,ci_up,alert"));
    // Every healthy stream emits 4 points: 9 bags with the trailing
    // bag held back (checkpointing session), window 5.
    for s in 0..62 {
        let name = format!("f{s:02}");
        let n = stdout
            .lines()
            .filter(|l| l.starts_with(&format!("{name},")))
            .count();
        assert_eq!(n, 4, "stream {name}:\n{err_tail}");
    }
    for name in ["net-a", "net-b"] {
        let n = stdout
            .lines()
            .filter(|l| l.starts_with(&format!("{name},")))
            .count();
        assert_eq!(n, 4, "tcp stream {name}");
    }
    assert!(
        err_tail.contains("quarantined stream 'poison'"),
        "stderr: {err_tail}"
    );
    assert!(state.exists(), "periodic/final checkpoints written");
    // Alerts fired on the shifted sensors.
    assert!(
        err_tail.contains("ALERT on f00"),
        "shifted sensor alerts: {err_tail}"
    );
    // Quarantine is per stream, not per process: 64 healthy streams
    // scored above while the poisoned one was isolated.
}

/// Acceptance: kill -9 between periodic checkpoints, resume from
/// `--state`, and the combined per-(stream, t) outputs are bit-identical
/// to an uninterrupted run (re-emitted points after the checkpoint must
/// reproduce exactly).
#[test]
fn serve_mode_kill_resume_replays_bit_identical_scores() {
    use std::collections::HashMap;
    let dir = std::env::temp_dir().join("bags_cpd_cli_servekill");
    let _ = std::fs::remove_dir_all(&dir);
    let src = dir.join("src");
    std::fs::create_dir_all(&src).expect("tmp dir");
    for s in 0..6 {
        write_sensor_csv(&src.join(format!("k{s}.csv")), 24, 12, s % 2 == 0);
    }
    let args = ["--tau", "4", "--tau-prime", "3", "--replicates", "400"];
    let state = dir.join("ck.snap");
    let ref_state = dir.join("ref.snap");

    // Uninterrupted reference (checkpointing, so hold-back matches).
    let reference = {
        let out = bin()
            .arg("serve")
            .arg("--dir")
            .arg(&src)
            .args(args)
            .arg("--state")
            .arg(&ref_state)
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // Interrupted: checkpoint every 8 bags, SIGKILL as soon as the
    // first checkpoint lands.
    let mut child = bin()
        .arg("serve")
        .arg("--dir")
        .arg(&src)
        .args(args)
        .arg("--state")
        .arg(&state)
        .args(["--checkpoint-bags", "8"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !state.exists() && std::time::Instant::now() < deadline {
        std::thread::sleep(std::time::Duration::from_millis(2));
        if let Some(status) = child.try_wait().expect("try_wait") {
            // Finished before we could kill it: the run (plus its final
            // checkpoint) is still a valid prefix; resume is a no-op.
            assert!(status.success());
            break;
        }
    }
    let _ = child.kill(); // SIGKILL; no final checkpoint, no cleanup
    let part1 = {
        let out = child.wait_with_output().expect("wait");
        String::from_utf8_lossy(&out.stdout).into_owned()
    };
    assert!(state.exists(), "a periodic checkpoint must have landed");

    // Resume from whatever checkpoint survived.
    let part2 = {
        let out = bin()
            .arg("serve")
            .arg("--dir")
            .arg(&src)
            .args(args)
            .arg("--state")
            .arg(&state)
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        String::from_utf8_lossy(&out.stdout).into_owned()
    };

    // Combined coverage must equal the reference, and any point emitted
    // by both sessions (after the checkpoint, before the kill) must be
    // byte-identical.
    let mut combined: HashMap<String, String> = HashMap::new();
    for line in part1
        .lines()
        .chain(part2.lines())
        .skip_while(|l| l.starts_with("stream,"))
    {
        if line.starts_with("stream,") {
            continue;
        }
        let mut it = line.splitn(3, ',');
        let key = format!("{},{}", it.next().unwrap(), it.next().unwrap());
        let value = line.to_string();
        if let Some(prev) = combined.insert(key.clone(), value.clone()) {
            assert_eq!(prev, value, "replayed point {key} diverged");
        }
    }
    let mut expected: Vec<&str> = reference
        .lines()
        .filter(|l| !l.starts_with("stream,"))
        .collect();
    let mut got: Vec<String> = combined.into_values().collect();
    expected.sort_unstable();
    got.sort_unstable();
    assert_eq!(
        expected,
        got.iter().map(String::as_str).collect::<Vec<_>>(),
        "kill/resume must replay to bit-identical per-stream scores"
    );
}

/// Follow keeps its historical fail-fast contract for detector-side
/// errors: a resumed session whose input dimension changed must exit
/// nonzero, not quietly warn and emit nothing.
#[test]
fn follow_mode_fails_on_dimension_change_across_resume() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_dimchange");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let state = dir.join("ck.snap");
    let args = ["--tau", "2", "--tau-prime", "2", "--replicates", "20"];

    std::fs::write(dir.join("one.csv"), "t,x\n0,0.1\n0,0.2\n1,0.1\n").unwrap();
    let out = bin()
        .arg("follow")
        .arg(dir.join("one.csv"))
        .args(args)
        .arg("--state")
        .arg(&state)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // A rotated 2-D input: the session-fresh assembler accepts it, but
    // the restored detector must reject it — and follow must fail.
    std::fs::write(
        dir.join("two.csv"),
        "2,1.0,2.0\n2,1.1,2.1\n3,1.0,2.0\n3,1.1,2.1\n4,0.5,0.5\n",
    )
    .unwrap();
    let out = bin()
        .arg("follow")
        .arg(dir.join("two.csv"))
        .args(args)
        .arg("--state")
        .arg(&state)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(1));
    // Caught either by the assembler (dimension restored from the
    // cursor's pending rows) or, failing that, by the detector —
    // both are fatal in follow mode.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("dimension 2 != 1") || stderr.contains("inconsistent dimensions"),
        "stderr: {stderr}"
    );
}

#[test]
fn serve_mode_rejects_missing_sources_and_misplaced_flags() {
    let out = bin().arg("serve").output().expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("at least one source"));

    let out = bin()
        .args(["follow", "x.csv", "--listen", "1.2.3.4:1"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve-mode"));
}

/// Write a sensor CSV whose bag at t = 5 is three rows of `1e308`: each
/// value is finite, but a k-means sum over them overflows.
fn write_overflowing_csv(path: &std::path::Path) {
    let mut f = std::fs::File::create(path).expect("create csv");
    writeln!(f, "t,x").expect("header");
    for t in 0..12 {
        if t == 5 {
            for _ in 0..3 {
                writeln!(f, "{t},1e308").expect("row");
            }
            continue;
        }
        for i in 0..24 {
            writeln!(f, "{t},{}", (i as f64 + 0.5) / 24.0 - 0.5).expect("row");
        }
    }
}

/// A stream with finite coordinates beyond `bagcpd::MAX_ABS_COORD` is
/// quarantined once at ingest, and the other streams score exactly as
/// they do without it.
#[test]
fn serve_quarantines_a_stream_with_overflowing_coordinates() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_overflow_serve");
    let _ = std::fs::remove_dir_all(&dir);
    let (fleet, healthy) = (dir.join("fleet"), dir.join("healthy"));
    for d in [&fleet, &healthy] {
        std::fs::create_dir_all(d).expect("tmp dir");
        write_sensor_csv(&d.join("a.csv"), 12, 5, true);
        write_sensor_csv(&d.join("b.csv"), 12, 5, false);
    }
    write_overflowing_csv(&fleet.join("bad.csv"));

    let serve = |src: &std::path::Path| {
        let out = bin()
            .arg("serve")
            .arg("--dir")
            .arg(src)
            .args(["--tau", "3", "--tau-prime", "2", "--replicates", "30"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "stderr: {stderr}");
        let mut rows: Vec<String> = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| l.starts_with("a,") || l.starts_with("b,"))
            .map(str::to_owned)
            .collect();
        rows.sort();
        (rows, stderr)
    };
    let (rows, stderr) = serve(&fleet);
    let (expected, _) = serve(&healthy);
    assert!(!expected.is_empty());
    assert_eq!(rows, expected, "healthy streams must be unaffected");
    let quarantines: Vec<&str> = stderr
        .lines()
        .filter(|l| l.contains("quarantined stream 'bad'"))
        .collect();
    assert_eq!(quarantines.len(), 1, "stderr: {stderr}");
    assert!(
        quarantines[0].contains("bad.csv:122") && quarantines[0].contains("'1e308'"),
        "{}",
        quarantines[0]
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn batch_rejects_overflowing_coordinates_without_panicking() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_overflow_batch");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("bad.csv");
    write_overflowing_csv(&input);
    let out = bin()
        .arg(&input)
        .args(["--tau", "3", "--tau-prime", "2", "--replicates", "30"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(
        stderr.contains("bad.csv:122: coordinate '1e308' exceeds"),
        "stderr: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr: {stderr}");
}

#[test]
fn state_flag_rejected_in_batch_mode() {
    let out = bin()
        .args(["x.csv", "--state", "s.snap"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("follow mode"));
}

#[test]
fn lr_score_option_works() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_test4");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let input = dir.join("bags.csv");
    write_test_csv(&input, 20, 10);
    let out = bin()
        .arg(&input)
        .args(["--score", "lr", "--replicates", "50"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
}

#[test]
fn serve_tcp_limit_flags_require_listen_and_serve_mode() {
    let out = bin()
        .args(["serve", "--csv", "x.csv", "--max-streams", "4"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("need --listen"));

    let out = bin()
        .args(["x.csv", "--max-line-bytes", "1024"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("serve-mode"));
}

/// Acceptance for the observability layer: a live `serve --metrics`
/// session answers `GET /metrics` with valid Prometheus text exposition
/// carrying metric families from every instrumented layer — engine,
/// ingest, solver, and pipeline.
#[test]
fn serve_mode_metrics_endpoint_answers_prometheus_scrapes() {
    use std::io::{BufRead as _, BufReader, Read as _, Write as _};
    use std::time::{Duration, Instant};

    let mut child = bin()
        .arg("serve")
        .args(["--listen", "127.0.0.1:0"])
        .args(["--metrics", "127.0.0.1:0"])
        .args(["--tau", "3", "--tau-prime", "2", "--replicates", "20"])
        .arg("--watch")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary spawns");

    // Both ports are announced on stderr before the loop starts.
    let stderr = child.stderr.take().expect("piped");
    let mut lines = BufReader::new(stderr).lines();
    let mut data_port: Option<u16> = None;
    let mut metrics_port: Option<u16> = None;
    while data_port.is_none() || metrics_port.is_none() {
        let line = lines
            .next()
            .expect("stderr closed before both ports were announced")
            .expect("stderr line");
        let port_of = |rest: &str| {
            rest.split_whitespace()
                .next()
                .and_then(|p| p.parse::<u16>().ok())
                .expect("port")
        };
        if let Some(rest) = line.strip_prefix("listening on 127.0.0.1:") {
            data_port = Some(port_of(rest));
        } else if let Some(rest) = line.strip_prefix("metrics: listening on 127.0.0.1:") {
            metrics_port = Some(port_of(rest));
        }
    }

    // Feed two TCP streams so every layer has something to count.
    let mut sock =
        std::net::TcpStream::connect(("127.0.0.1", data_port.unwrap())).expect("connect");
    for t in 0..9 {
        for i in 0..20 {
            let level = if t < 5 { 0.0 } else { 5.0 };
            writeln!(sock, "m-a,{t},{}", level + (i % 5) as f64 * 0.1).unwrap();
            writeln!(sock, "m-b,{t},{}", level + (i % 4) as f64 * 0.2).unwrap();
        }
    }
    sock.flush().unwrap();

    // Scrape until the ingested bags show up in the counters (the
    // endpoint is live immediately; the data takes a few ticks).
    let deadline = Instant::now() + Duration::from_secs(60);
    let body = loop {
        let mut scrape =
            std::net::TcpStream::connect(("127.0.0.1", metrics_port.unwrap())).expect("scrape");
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut resp = String::new();
        scrape.read_to_string(&mut resp).unwrap();
        assert!(resp.starts_with("HTTP/1.0 200 OK\r\n"), "{resp}");
        assert!(
            resp.contains("Content-Type: text/plain; version=0.0.4; charset=utf-8"),
            "{resp}"
        );
        let body = resp.split("\r\n\r\n").nth(1).expect("body").to_string();
        let pushes = body
            .lines()
            .find_map(|l| l.strip_prefix("bagscpd_engine_pushes_total "))
            .and_then(|v| v.parse::<u64>().ok())
            .expect("engine pushes sample");
        let solves = body
            .lines()
            .find_map(|l| l.strip_prefix("bagscpd_solver_exact_solves_total "))
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
        // 9 bags per stream with the trailing bag held back in watch
        // mode: 8 completed bags on each of the two streams. The driver
        // counts a push when it sends it, a worker counts its solves
        // after its tick, so wait for both.
        if pushes >= 16 && solves > 0 {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "pushes never reached 16 with a solve counted:\n{body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    };

    // Families from all four layers, with their TYPE declarations.
    for (family, kind) in [
        ("bagscpd_engine_pushes_total", "counter"),
        ("bagscpd_engine_ticks_total", "counter"),
        ("bagscpd_engine_tick_messages", "gauge"),
        ("bagscpd_ingest_bags_total", "counter"),
        ("bagscpd_ingest_tcp_lines_total", "counter"),
        ("bagscpd_ingest_poll_seconds", "histogram"),
        ("bagscpd_solver_exact_solves_total", "counter"),
        ("bagscpd_solver_solve_seconds", "histogram"),
        ("bagscpd_pipeline_events_delivered_total", "counter"),
        ("bagscpd_pipeline_deliver_seconds", "histogram"),
        ("bagscpd_metrics_scrapes_total", "counter"),
    ] {
        assert!(
            body.contains(&format!("# TYPE {family} {kind}")),
            "family '{family}' ({kind}) missing:\n{body}"
        );
    }
    // The solver actually ran (window 5 over 8 bags scores points), and
    // its latency histogram is cumulative up to +Inf.
    let solves = body
        .lines()
        .find_map(|l| l.strip_prefix("bagscpd_solver_exact_solves_total "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("solver sample");
    assert!(solves > 0, "EMD solves counted:\n{body}");
    assert!(
        body.contains("bagscpd_solver_solve_seconds_bucket{le=\"+Inf\"}"),
        "{body}"
    );
    // Per-sink and per-worker labels came through.
    assert!(
        body.contains("bagscpd_pipeline_events_delivered_total{sink=\"csv\"}"),
        "{body}"
    );
    assert!(
        body.contains("bagscpd_engine_ticks_total{worker=\"0\"}"),
        "{body}"
    );

    child.kill().expect("kill serve");
    let _ = child.wait();
}

#[test]
fn fault_tolerance_flags_are_validated() {
    // All six fault-domain flags are serve-only.
    for args in [
        ["x.csv", "--auth-token", "t"],
        ["x.csv", "--spill-dir", "d"],
        ["x.csv", "--sink-retries", "3"],
        ["x.csv", "--chaos-sink", "5:2"],
    ] {
        let out = bin().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("serve-mode"),
            "{args:?}"
        );
    }

    // The connection-level ones additionally need a TCP listener.
    let out = bin()
        .args(["serve", "--csv", "x.csv", "--auth-token", "t"])
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("need --listen"));

    // Value validation: zero/garbage are refused up front.
    let cases: [(&[&str], &str); 4] = [
        (
            &["serve", "--csv", "x.csv", "--evict-idle", "0"],
            "positive",
        ),
        (
            &[
                "serve",
                "--csv",
                "x.csv",
                "--listen",
                "127.0.0.1:0",
                "--drain-grace",
                "-3",
            ],
            "non-negative",
        ),
        (
            &["serve", "--csv", "x.csv", "--sink-retries", "0"],
            "at least 1",
        ),
        (
            &["serve", "--csv", "x.csv", "--chaos-sink", "nope"],
            "<at_event>:<failures>",
        ),
    ];
    for (args, want) in cases {
        let out = bin().args(args).output().expect("binary runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(want), "{args:?}: {stderr}");
    }
}

#[test]
fn replay_diff_rereads_a_batch_recording_of_out_of_order_input() {
    // Batch sorts rows by time and merges equal times wherever they
    // appear, so it accepts input an online reader refuses as "time
    // went backwards". `replay --diff` of a batch recording must read
    // the input the way batch did.
    let dir = std::env::temp_dir().join("bags_cpd_cli_replay_unordered");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let x = |t: usize, i: usize| {
        let u = (i as f64 + 0.5) / 16.0 - 0.5;
        if t < 8 {
            u
        } else {
            6.0 * u.signum() + u
        }
    };
    // 16 bags of 16 rows: bags in descending time, and bag pairs 0/1,
    // 2/3, … interleaved row by row.
    let descending: Vec<(usize, usize)> = (0..16)
        .rev()
        .flat_map(|t| (0..16).map(move |i| (t, i)))
        .collect();
    let interleaved: Vec<(usize, usize)> = (0..16)
        .step_by(2)
        .flat_map(|p| (0..16).flat_map(move |i| [(p, i), (p + 1, i)]))
        .collect();
    let args = [
        "--tau",
        "3",
        "--tau-prime",
        "3",
        "--replicates",
        "50",
        "--seed",
        "7",
    ];
    for (name, layout) in [("descending", descending), ("interleaved", interleaved)] {
        let input = dir.join(format!("{name}.csv"));
        let log = dir.join(format!("{name}.slog"));
        let _ = std::fs::remove_file(&log);
        let mut text = String::from("t,x\n");
        for (t, i) in layout {
            text.push_str(&format!("{t},{}\n", x(t, i)));
        }
        std::fs::write(&input, text).expect("write csv");

        let out = bin()
            .arg(&input)
            .args(args)
            .arg("--score-log")
            .arg(&log)
            .output()
            .expect("batch runs");
        assert!(
            out.status.success(),
            "{name}: batch: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let out = bin()
            .args(["replay", "--diff"])
            .arg(&log)
            .arg(&input)
            .args(args)
            .output()
            .expect("replay runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{name}: replay --diff: {stderr}");
        // 16 bags, window 6: 11 points, every one reproduced bit for bit.
        assert!(
            stderr.contains("11 compared (11 bit-equal, 0 within eps 0, 0 diverged)"),
            "{name}: {stderr}"
        );
        assert!(
            stderr.contains("0 recorded point(s) not reproduced"),
            "{name}: {stderr}"
        );
    }
}

/// `query` over a recorded 3-stream `serve --dir` session: the summary
/// agrees with what serve printed, a stream/time filter returns exactly
/// that range, `--alerts-only --top 3` ranks the alerting points, and
/// an unknown stream is an error that names it.
#[test]
fn query_summarizes_and_filters_a_serve_recording() {
    let dir = std::env::temp_dir().join("bags_cpd_cli_query");
    let _ = std::fs::remove_dir_all(&dir);
    let fleet = dir.join("fleet");
    std::fs::create_dir_all(&fleet).expect("tmp dir");
    // s0 and s2 leave their regime at t = 8 and return at t = 16; s1
    // stays put.
    for s in 0..3 {
        let mut text = String::from("t,x\n");
        for t in 0..24 {
            for i in 0..24 {
                let u = (i as f64 + 0.5) / 24.0 - 0.5;
                let shifted = s != 1 && (8..16).contains(&t);
                let x = if shifted { 5.0 * u.signum() + u } else { u };
                text.push_str(&format!("{t},{x}\n"));
            }
        }
        std::fs::write(fleet.join(format!("s{s}.csv")), text).expect("write csv");
    }
    let log = dir.join("run.slog");
    let served = bin()
        .args(["serve", "--dir"])
        .arg(&fleet)
        .args(["--tau", "4", "--tau-prime", "3", "--replicates", "100"])
        .args(["--seed", "3", "--score-log"])
        .arg(&log)
        .output()
        .expect("serve runs");
    assert!(served.status.success());
    let served = String::from_utf8_lossy(&served.stdout).into_owned();
    let query = |args: &[&str]| {
        let out = bin()
            .arg("query")
            .arg(&log)
            .args(args)
            .output()
            .expect("query runs");
        let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
        (
            out.status.code(),
            stdout,
            String::from_utf8_lossy(&out.stderr).into_owned(),
        )
    };
    // Canonical rows: stream,t,score,ci_lo,ci_up,xi,alert.
    let rows = |stdout: &str| -> Vec<(String, u64, f64, bool)> {
        let mut lines = stdout.lines();
        assert_eq!(lines.next(), Some("stream,t,score,ci_lo,ci_up,xi,alert"));
        lines
            .map(|l| {
                let f: Vec<&str> = l.split(',').collect();
                assert_eq!(f.len(), 7, "{l}");
                (
                    f[0].to_string(),
                    f[1].parse().unwrap(),
                    f[2].parse().unwrap(),
                    f[6] == "1",
                )
            })
            .collect()
    };

    // Summary: one row per stream, in name order, matching serve's
    // stdout point and alert counts; one session, so no duplicates.
    let (code, summary, _) = query(&[]);
    assert_eq!(code, Some(0));
    let mut lines = summary.lines();
    assert_eq!(
        lines.next(),
        Some("stream,points,alerts,min_t,max_t,max_score,records")
    );
    let mut total_alerts = 0;
    for (s, line) in lines.enumerate() {
        let f: Vec<&str> = line.split(',').collect();
        let name = format!("s{s}");
        assert_eq!(f[0], name, "{summary}");
        let printed: Vec<&str> = served
            .lines()
            .filter(|l| l.starts_with(&format!("{name},")))
            .collect();
        let alerts = printed.iter().filter(|l| l.ends_with(",1")).count();
        assert_eq!(f[1], printed.len().to_string(), "{line}");
        assert_eq!(f[2], alerts.to_string(), "{line}");
        assert_eq!((f[3], f[4]), ("4", "21"), "{line}");
        assert_eq!(f[6], f[1], "{line}");
        total_alerts += alerts;
    }
    assert_eq!(summary.lines().count(), 4, "{summary}");
    assert!(total_alerts > 3, "{summary}");

    // A stream and an inclusive time range.
    let (code, ranged, _) = query(&["--stream", "s0", "--since", "6", "--until", "12"]);
    assert_eq!(code, Some(0));
    let ranged = rows(&ranged);
    assert!(ranged.iter().all(|r| r.0 == "s0"), "{ranged:?}");
    assert_eq!(
        ranged.iter().map(|r| r.1).collect::<Vec<_>>(),
        (6..=12).collect::<Vec<_>>()
    );

    // The three highest-scoring alerts, best first, ties by (stream, t).
    let (code, all_alerts, _) = query(&["--alerts-only"]);
    assert_eq!(code, Some(0));
    let mut expect = rows(&all_alerts);
    assert_eq!(expect.len(), total_alerts);
    expect.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    expect.truncate(3);
    let (code, top, _) = query(&["--alerts-only", "--top", "3"]);
    assert_eq!(code, Some(0));
    let top = rows(&top);
    assert!(top.iter().all(|r| r.3), "{top:?}");
    assert_eq!(top, expect);

    // A stream the log never recorded.
    let (code, stdout, stderr) = query(&["--stream", "nope"]);
    assert_eq!(code, Some(1), "{stdout}");
    assert!(stderr.contains("stream 'nope'"), "{stderr}");
}
