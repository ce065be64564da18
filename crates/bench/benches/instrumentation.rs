//! The §4.1 perturbation claims, measured:
//!
//! * "Any point that does not contain instrumentation does not cause any
//!   execution perturbations" — cost of executing an empty point;
//! * incremental cost of counters, timers, guards, and SAS notifications;
//! * a point instrumented for many foci, of which few can match one
//!   execution (`guarded_fanout`);
//! * limitation 2 of §4.2.4 — a notification the SAS ignores still costs
//!   time, recoverable by removing the snippet dynamically.

use dyninst_sim::{ExecCtx, InstrumentationManager, Op, Pred, SentenceArg, Snippet};
use pdmap::model::Namespace;
use pdmap::sas::{LocalSas, Question, SentencePattern};
use pdmap_bench::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn bench_point_execution(c: &mut Criterion) {
    let mut g = c.benchmark_group("point_execution");
    g.sample_size(60);

    // Uninstrumented point: the paper's zero-perturbation case.
    g.bench_function("uninstrumented", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("hot");
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            m.execute(black_box(p), &mut ctx);
        });
    });

    // Disabled point: instrumentation present but switched off.
    g.bench_function("disabled", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("hot");
        let cnt = m.primitives().new_counter();
        m.insert(p, Snippet::new(vec![Op::IncrCounter(cnt, 1)]));
        m.set_point_enabled(p, false);
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            m.execute(black_box(p), &mut ctx);
        });
    });

    g.bench_function("counter", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("hot");
        let cnt = m.primitives().new_counter();
        m.insert(p, Snippet::new(vec![Op::IncrCounter(cnt, 1)]));
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            m.execute(black_box(p), &mut ctx);
        });
    });

    g.bench_function("timer_start_stop", |b| {
        let m = InstrumentationManager::new();
        let entry = m.point("entry");
        let exit = m.point("exit");
        let t = m.primitives().new_timer();
        m.insert(entry, Snippet::new(vec![Op::StartProcessTimer(t)]));
        m.insert(exit, Snippet::new(vec![Op::StopProcessTimer(t)]));
        let mut now = 0u64;
        b.iter(|| {
            now += 2;
            let mut ctx = ExecCtx::basic(0, now);
            m.execute(entry, &mut ctx);
            m.execute(exit, &mut ctx);
        });
    });

    g.finish();
}

fn bench_guards_and_sas(c: &mut Criterion) {
    let mut g = c.benchmark_group("guards_and_sas");
    g.sample_size(60);

    let ns = Namespace::new();
    let l = ns.level("L");
    let v = ns.verb(l, "v", "");
    let noun = ns.noun(l, "A", "");
    let sid = ns.say(v, [noun]);

    // Guard that fails (question unsatisfied): the cheap suppressed path.
    g.bench_function("guard_unsatisfied", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("hot");
        let cnt = m.primitives().new_counter();
        let mut sas = LocalSas::new(ns.clone());
        let qid = sas.register_question(&Question::new(
            "q",
            vec![SentencePattern::noun_verb(noun, v)],
        ));
        m.insert(
            p,
            Snippet::guarded(
                vec![Pred::QuestionSatisfied(qid)],
                vec![Op::IncrCounter(cnt, 1)],
            ),
        );
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            ctx.sas = Some(&mut sas);
            m.execute(p, &mut ctx);
        });
    });

    g.bench_function("guard_satisfied", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("hot");
        let cnt = m.primitives().new_counter();
        let mut sas = LocalSas::new(ns.clone());
        let qid = sas.register_question(&Question::new(
            "q",
            vec![SentencePattern::noun_verb(noun, v)],
        ));
        sas.activate(sid);
        m.insert(
            p,
            Snippet::guarded(
                vec![Pred::QuestionSatisfied(qid)],
                vec![Op::IncrCounter(cnt, 1)],
            ),
        );
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            ctx.sas = Some(&mut sas);
            m.execute(p, &mut ctx);
        });
    });

    // The SAS notification itself (mapping instrumentation body).
    g.bench_function("sas_notify_pair", |b| {
        let m = InstrumentationManager::new();
        let enter = m.point("enter");
        let exit = m.point("exit");
        m.insert(
            enter,
            Snippet::new(vec![Op::SasActivate(SentenceArg::FromContext)]),
        );
        m.insert(
            exit,
            Snippet::new(vec![Op::SasDeactivate(SentenceArg::FromContext)]),
        );
        let mut sas = LocalSas::new(ns.clone());
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            ctx.sentence = Some(sid);
            ctx.sas = Some(&mut sas);
            m.execute(enter, &mut ctx);
            let mut ctx2 = ExecCtx::basic(0, 0);
            ctx2.sentence = Some(sid);
            ctx2.sas = Some(&mut sas);
            m.execute(exit, &mut ctx2);
        });
    });

    g.finish();
}

/// One point of a consultant wave chunk: 64 requests, half guarded by
/// `NodeIs` over 8 nodes and half by `SentenceActive` over 8 sentences,
/// each with its own counter, executed on one node with one sentence
/// active. 8 of the 64 guards can hold.
fn bench_guarded_fanout(c: &mut Criterion) {
    let mut g = c.benchmark_group("guarded_fanout");
    g.sample_size(60);
    let ns = Namespace::new();
    let l = ns.level("L");
    let v = ns.verb(l, "v", "");
    let sids: Vec<_> = (0..8)
        .map(|i| ns.say(v, [ns.noun(l, &format!("A{i}"), "")]))
        .collect();
    g.bench_function("64_snippets_8_nodes_8_sentences", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("hot");
        for k in 0..64u32 {
            let guard = if k % 2 == 0 {
                Pred::NodeIs(k / 2 % 8)
            } else {
                Pred::SentenceActive(sids[(k / 2 % 8) as usize])
            };
            let cnt = m.primitives().new_counter();
            m.insert(
                p,
                Snippet::guarded(vec![guard], vec![Op::IncrCounter(cnt, 1)]),
            );
        }
        let mut sas = LocalSas::new(ns.clone());
        sas.activate(sids[3]);
        b.iter(|| {
            let mut ctx = ExecCtx::basic(3, 0);
            ctx.sas = Some(&mut sas);
            m.execute(black_box(p), &mut ctx);
        });
    });
    g.finish();
}

/// Limitation 2 (§4.2.4): an ignored notification still costs; "we could
/// eliminate this cost by dynamically removing such notifications from the
/// executing code [5]". Three rungs: notify-and-ignore, notify-filtered,
/// notification removed.
fn bench_ignored_notifications(c: &mut Criterion) {
    let mut g = c.benchmark_group("ignored_notification_cost");
    g.sample_size(60);
    let ns = Namespace::new();
    let l = ns.level("L");
    let v = ns.verb(l, "v", "");
    let interesting = ns.noun(l, "A", "");
    let boring = ns.say(v, [ns.noun(l, "B", "")]);

    let with_question = |filter: bool| {
        let mut sas = LocalSas::new(ns.clone());
        sas.register_question(&Question::new(
            "about A",
            vec![SentencePattern::noun_verb(interesting, v)],
        ));
        sas.set_filter_uninteresting(filter);
        sas
    };

    g.bench_function("notification_ignored_by_sas", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("b_active");
        m.insert(
            p,
            Snippet::new(vec![Op::SasActivate(SentenceArg::FromContext)]),
        );
        m.insert(
            p,
            Snippet::new(vec![Op::SasDeactivate(SentenceArg::FromContext)]),
        );
        let mut sas = with_question(false);
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            ctx.sentence = Some(boring);
            ctx.sas = Some(&mut sas);
            m.execute(p, &mut ctx);
        });
    });

    g.bench_function("notification_filtered_by_sas", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("b_active");
        m.insert(
            p,
            Snippet::new(vec![Op::SasActivate(SentenceArg::FromContext)]),
        );
        m.insert(
            p,
            Snippet::new(vec![Op::SasDeactivate(SentenceArg::FromContext)]),
        );
        let mut sas = with_question(true);
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            ctx.sentence = Some(boring);
            ctx.sas = Some(&mut sas);
            m.execute(p, &mut ctx);
        });
    });

    g.bench_function("notification_removed", |b| {
        let m = InstrumentationManager::new();
        let p = m.point("b_active");
        let h1 = m.insert(
            p,
            Snippet::new(vec![Op::SasActivate(SentenceArg::FromContext)]),
        );
        m.remove(h1); // the dynamic-removal fix
        let mut sas = with_question(false);
        b.iter(|| {
            let mut ctx = ExecCtx::basic(0, 0);
            ctx.sentence = Some(boring);
            ctx.sas = Some(&mut sas);
            m.execute(p, &mut ctx);
        });
    });

    g.finish();
}

criterion_group!(
    benches,
    bench_point_execution,
    bench_guards_and_sas,
    bench_guarded_fanout,
    bench_ignored_notifications
);
criterion_main!(benches);
