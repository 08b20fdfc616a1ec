//! Host-profile attribution across a hand-off: a scope held open while its
//! proc waits is charged only that proc's allocations, never those another
//! proc makes while it holds the turn.
//!
//! This lives in its own integration-test binary on purpose: the profiler's
//! switches and tables are process-wide, and a test running beside it would
//! leak its allocations into the profile.

use ps2_simnet::hostprof::{self, Scope};
use ps2_simnet::{ScopeStat, SimBuilder};

/// One profiled run: `client` opens a `codec.encode` scope and makes one
/// call to `server`; while the client waits for the reply, the server makes
/// `allocs` allocations inside its own `codec.decode` scope. Returns the
/// two rows.
fn run(allocs: usize) -> (ScopeStat, ScopeStat) {
    let mut sim = SimBuilder::new().seed(1).build();
    let server = sim.spawn_daemon("server", move |ctx| loop {
        let env = ctx.recv();
        {
            let _scope = hostprof::scope(Scope::CodecDecode);
            for i in 0..allocs {
                std::hint::black_box(Box::new(i));
            }
        }
        ctx.reply(&env, (), 8);
    });
    sim.spawn("client", move |ctx| {
        let _scope = hostprof::scope(Scope::CodecEncode);
        let _ = ctx.call(server, 0, (), 8);
    });
    hostprof::set_enabled(true);
    hostprof::set_alloc_counting(true);
    let report = sim.run();
    hostprof::set_alloc_counting(false);
    hostprof::set_enabled(false);
    let host = report
        .expect("profiled sim failed")
        .host
        .expect("a profiled run has a host profile");
    let row = |name: &str| {
        host.scopes
            .iter()
            .find(|s| s.name == name)
            .cloned()
            .unwrap_or_else(|| panic!("no {name} row in {:?}", host.scopes))
    };
    (row("codec.encode"), row("codec.decode"))
}

#[test]
fn a_scope_open_across_a_yield_is_charged_only_its_own_procs_allocations() {
    const N: usize = 1000;
    // First use of anything lazily initialised happens here, not below.
    run(0);
    let (quiet_encode, quiet_decode) = run(0);
    let (encode, decode) = run(N);
    assert_eq!((encode.calls, decode.calls), (1, 1));
    assert_eq!((quiet_encode.calls, quiet_decode.calls), (1, 1));
    assert!(decode.allocs >= N as u64, "server scope: {decode:?}");
    // The client's scope sees exactly what it saw when the server allocated
    // nothing: its own allocations, none of the server's.
    assert_eq!(
        (encode.allocs, encode.alloc_bytes),
        (quiet_encode.allocs, quiet_encode.alloc_bytes),
        "client scope with a busy server: {encode:?}; with an idle one: {quiet_encode:?}"
    );
}
