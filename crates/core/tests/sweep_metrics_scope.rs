//! Sweep-engine metrics belong to the session that ran the sweep: the
//! job counters come from the caller's configuration, so building a
//! second session cannot redirect the first one's counts.

use smith85_core::experiments::table2;
use smith85_core::session::SimSession;

#[test]
fn sweep_jobs_land_in_the_session_that_ran_them() {
    let session = || SimSession::builder().quick().trace_len(2_000).threads(2).build().unwrap();
    let (a, b) = (session(), session());
    let _ = table2::run(a.config());
    let jobs = |s: &SimSession| s.registry().counter("sweep_jobs_total").get();
    assert!(jobs(&a) > 0, "session A ran the sweep but counted no jobs");
    assert_eq!(jobs(&b), 0, "session B ran nothing but counted A's jobs");
}
