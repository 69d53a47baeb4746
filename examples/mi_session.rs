//! DUEL over the gdb/MI wire protocol, with record/replay.
//!
//! Every byte of this session crosses a real MI serialization → parse
//! boundary: the `MiTarget` adapter implements the paper's narrow
//! debugger interface by issuing MI commands, and `MockGdb` answers
//! them from a simulated debuggee. A flight recorder under the page
//! cache captures the calls that reach the wire; the capture is then
//! replayed strictly with *no debuggee at all* — the capture alone
//! drives the second run.
//!
//! ```sh
//! cargo run --example mi_session
//! ```

use duel::core::Session;
use duel::gdbmi::{MiTarget, MockGdb};
use duel::target::{
    scenario, CachedTarget, Capture, RecordTarget, ReplayMode, ReplayTarget, SharedSink,
};

fn main() {
    // 1. A live session over MI, recorded below the cache.
    let sink = SharedSink::default();
    let mi = MiTarget::connect(MockGdb::new(scenario::hash_table_basic())).expect("connect");
    let mut rec = RecordTarget::new(mi);
    rec.start(Box::new(sink.clone()), "gdb-mi", "hash")
        .expect("start recording");
    let mut target = CachedTarget::new(rec);
    let queries = [
        "(hash[..1024] !=? 0)->scope >? 5",
        "hash[0]-->next->scope",
        "#/(hash[..1024]-->next)",
    ];
    let mut first_run = Vec::new();
    {
        let mut session = Session::new(&mut target);
        for q in queries {
            println!("duel> {q}");
            let lines = session.eval_lines(q).expect("query");
            for l in &lines {
                println!("{l}");
            }
            println!();
            first_run.push(lines);
        }
    }
    target.inner_mut().stop().expect("finalize capture");
    let text = sink.contents();
    let capture = Capture::parse(&text).expect("parse capture");
    println!(
        "— recorded {} wire calls ({} bytes of capture)\n",
        capture.events.len(),
        text.len()
    );
    for line in text.lines().skip(1).take(5) {
        println!("    {line}");
    }
    println!("    …\n");

    // 2. Strict replay: the capture alone answers the same queries.
    let mut target = CachedTarget::new(ReplayTarget::from_capture(capture, ReplayMode::Strict));
    let mut session = Session::new(&mut target);
    for (q, want) in queries.iter().zip(first_run.iter()) {
        let got = session.eval_lines(q).expect("replayed query");
        assert_eq!(&got, want, "replay diverged on `{q}`");
    }
    drop(session);
    let replay = target.inner();
    assert!(replay.divergence().is_none(), "{:?}", replay.divergence());
    assert_eq!(replay.events_consumed(), replay.events_total());
    println!("replayed the session from the capture: outputs identical");
}
