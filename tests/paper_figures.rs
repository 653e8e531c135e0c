//! Golden integration tests: every number the paper publishes for its
//! worked example (Figures 1–5) must reproduce exactly.

use noc::apps::paper_example::{
    figure1_cdcg, figure1_cwg, mapping_c, mapping_d, mesh_2x2, P_AF1, P_BF1, P_EA2, P_FB1,
};
use noc::energy::{evaluate_cdcm, evaluate_cwm, Technology};
use noc::sim::gantt::{GanttChart, SegmentKind};
use noc::sim::{schedule, CycleInterval, SimParams};

#[test]
fn figure2_cwm_energy_is_390_pj_for_both_mappings() {
    let cwg = figure1_cwg();
    let mesh = mesh_2x2();
    let tech = Technology::paper_example();
    assert_eq!(
        evaluate_cwm(&cwg, &mesh, &mapping_c(), &tech).picojoules(),
        390.0
    );
    assert_eq!(
        evaluate_cwm(&cwg, &mesh, &mapping_d(), &tech).picojoules(),
        390.0
    );
}

#[test]
fn figure3_execution_times_and_energies() {
    let cdcg = figure1_cdcg();
    let mesh = mesh_2x2();
    let tech = Technology::paper_example();
    let params = SimParams::paper_example();

    let a = evaluate_cdcm(&cdcg, &mesh, &mapping_c(), &tech, &params).expect("schedules");
    assert_eq!(a.texec_ns, 100.0);
    assert!((a.objective_pj() - 400.0).abs() < 1e-9);
    assert!((a.breakdown.dynamic.picojoules() - 390.0).abs() < 1e-9);
    assert!((a.breakdown.static_energy.picojoules() - 10.0).abs() < 1e-9);

    let b = evaluate_cdcm(&cdcg, &mesh, &mapping_d(), &tech, &params).expect("schedules");
    assert_eq!(b.texec_ns, 90.0);
    assert!((b.objective_pj() - 399.0).abs() < 1e-9);
}

#[test]
fn figure3a_occupancy_intervals_spot_checks() {
    // The *-marked entries of Figure 3(a): the contention-delayed A→F
    // packet.
    let cdcg = figure1_cdcg();
    let sched = schedule(
        &cdcg,
        &mesh_2x2(),
        &mapping_c(),
        &SimParams::paper_example(),
    )
    .expect("schedules");
    let paf1 = sched.packet(P_AF1);
    assert_eq!(paf1.routers[1].1, CycleInterval::new(46, 69)); // *15(A→F) at Rτ1
    assert_eq!(paf1.links[2].1, CycleInterval::new(55, 70)); // *link τ1→τ3
    assert_eq!(paf1.routers[2].1, CycleInterval::new(56, 72)); // *Rτ3
    assert_eq!(paf1.links[3].1, CycleInterval::new(58, 73)); // *ejection to F
    assert_eq!(paf1.contention_cycles, 7);

    // Non-contended spot checks straight from the figure.
    assert_eq!(sched.packet(P_BF1).links[1].1, CycleInterval::new(13, 53));
    assert_eq!(sched.packet(P_EA2).injection(), CycleInterval::new(56, 71));
    assert_eq!(sched.packet(P_FB1).delivery, 100);
}

#[test]
fn figure3b_is_contention_free_with_overlapping_ejection() {
    let cdcg = figure1_cdcg();
    let sched = schedule(
        &cdcg,
        &mesh_2x2(),
        &mapping_d(),
        &SimParams::paper_example(),
    )
    .expect("schedules");
    assert!(sched.is_contention_free());
    // The two packets into F overlap on the ejection link — the paper's
    // model does not arbitrate it.
    let bf = sched.packet(P_BF1).links.last().expect("path").1;
    let af = sched.packet(P_AF1).links.last().expect("path").1;
    assert_eq!(bf, CycleInterval::new(16, 56));
    assert_eq!(af, CycleInterval::new(48, 63));
    assert!(bf.overlaps(&af));
}

/// `GanttChart::render(100)` of Figure 4: mapping (c), one 7-cycle contention episode on A→F.
const FIGURE4_GANTT: &str = "\
time: 0..100 cycles, 1 cycle(s) per column
15(A→B):6  |======>>>>>>>##############.........................................................................|
40(B→F):10 |==========>>>>>>>#######################################............................................|
20(E→A):10 |==========>>>>>>>###################................................................................|
15(E→A):20 |....................................====================>>>>>>>##############.......................|
15(A→F):6  |....................................======>>>>>>XXXXXXX>>>>##############...........................|
15(F→B):6  |.........................................................................======>>>>>>>##############|
legend: ==computation delay, >=routing delay, #=packet delay, X=contention delay, w=injection wait
";

/// `GanttChart::render(100)` of Figure 5: mapping (d), contention-free.
const FIGURE5_GANTT: &str = "\
time: 0..90 cycles, 1 cycle(s) per column
15(A→B):6  |======>>>>>>>>>>##############............................................................|
40(B→F):10 |==========>>>>>>>#######################################..................................|
20(E→A):10 |==========>>>>>>>###################......................................................|
15(E→A):20 |....................................====================>>>>>>>##############.............|
15(A→F):6  |....................................======>>>>>>>##############...........................|
15(F→B):6  |...............................................................======>>>>>>>##############|
legend: ==computation delay, >=routing delay, #=packet delay, X=contention delay, w=injection wait
";

#[test]
fn figures_4_and_5_timing_diagrams() {
    let cdcg = figure1_cdcg();
    let mesh = mesh_2x2();
    let params = SimParams::paper_example();

    let a = schedule(&cdcg, &mesh, &mapping_c(), &params).expect("schedules");
    let chart_a = GanttChart::from_schedule(&a, &cdcg);
    assert_eq!(chart_a.texec_cycles(), 100);
    // Figure 4 shows exactly one contention episode (7 cycles on A→F).
    let contention: u64 = chart_a
        .rows()
        .iter()
        .map(|r| r.cycles_in(SegmentKind::Contention))
        .sum();
    assert_eq!(contention, 7);
    assert_eq!(chart_a.render(100), FIGURE4_GANTT);

    let b = schedule(&cdcg, &mesh, &mapping_d(), &params).expect("schedules");
    let chart_b = GanttChart::from_schedule(&b, &cdcg);
    assert_eq!(chart_b.texec_cycles(), 90);
    for row in chart_b.rows() {
        assert_eq!(row.cycles_in(SegmentKind::Contention), 0);
    }
    assert_eq!(chart_b.render(100), FIGURE5_GANTT);

    // "an execution time reduction of 11.1%, from 100 ns to 90 ns".
    // 100→90 is 10.0% of the original; the paper's 11.1% is the inverse
    // direction (10/90). Both follow from the same two golden numbers.
    let reduction = (a.texec_ns() - b.texec_ns()) / a.texec_ns();
    assert!((reduction - 0.100).abs() < 1e-9);
    let inverse = (a.texec_ns() - b.texec_ns()) / b.texec_ns();
    assert!((inverse - 0.111).abs() < 0.001);
}

#[test]
fn paper_quote_mapping_a_consumes_about_one_percent_more() {
    let cdcg = figure1_cdcg();
    let mesh = mesh_2x2();
    let tech = Technology::paper_example();
    let params = SimParams::paper_example();
    let a = evaluate_cdcm(&cdcg, &mesh, &mapping_c(), &tech, &params).expect("schedules");
    let b = evaluate_cdcm(&cdcg, &mesh, &mapping_d(), &tech, &params).expect("schedules");
    let extra = a.objective_pj() / b.objective_pj() - 1.0;
    // 400/399 - 1 = 0.25%; the paper rounds up to "~1%".
    assert!(extra > 0.0 && extra < 0.01);
}

#[test]
fn full_figure3a_annotation_set() {
    // Cross-check a larger slice of the published cost variable lists.
    let cdcg = figure1_cdcg();
    let sched = schedule(
        &cdcg,
        &mesh_2x2(),
        &mapping_c(),
        &SimParams::paper_example(),
    )
    .expect("schedules");
    let annotations = sched.paper_annotations(&cdcg);
    let all: Vec<String> = annotations
        .iter()
        .flat_map(|(_, lines)| lines.clone())
        .collect();
    for expected in [
        "15(A→B):[6,21]",
        "15(A→B):[7,23]",
        "15(A→B):[9,24]",
        "15(A→B):[10,26]",
        "15(A→B):[12,27]",
        "40(B→F):[10,50]",
        "40(B→F):[11,52]",
        "40(B→F):[13,53]",
        "40(B→F):[14,55]",
        "40(B→F):[16,56]",
        "20(E→A):[10,30]",
        "20(E→A):[11,32]",
        "20(E→A):[13,33]",
        "20(E→A):[14,35]",
        "20(E→A):[16,36]",
        "15(E→A):[56,71]",
        "15(E→A):[57,73]",
        "15(E→A):[59,74]",
        "15(E→A):[60,76]",
        "15(E→A):[62,77]",
        "15(A→F):[42,57]",
        "15(A→F):[43,59]",
        "15(A→F):[45,60]",
        "15(A→F):[46,69]",
        "15(A→F):[55,70]",
        "15(A→F):[56,72]",
        "15(A→F):[58,73]",
        "15(F→B):[79,94]",
        "15(F→B):[80,96]",
        "15(F→B):[82,97]",
        "15(F→B):[83,99]",
        "15(F→B):[85,100]",
    ] {
        assert!(all.contains(&expected.to_string()), "missing {expected}");
    }
}
