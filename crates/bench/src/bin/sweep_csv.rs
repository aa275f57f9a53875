//! Emit the figure sweep as CSV (for plotting or regression tracking), or
//! as shared-format JSON with `--json`.
//!
//! Three sections, separated by blank lines and `#` comment headers:
//!
//! 1. the **modeled** sweep — all six configurations of Figures 5/6 across
//!    the paper's block sizes on the calibrated P-II/GbE testbed;
//! 2. the **measured** sweep — the same configurations really executed on
//!    this host with telemetry enabled, including speculation hit/miss
//!    counts, wire-byte totals, per-layer copy-meter bytes, request
//!    latency quantiles and the request-span stage p50/p99;
//! 3. the **fault** sweep — per-frame drop probability vs goodput through
//!    the self-healing ORB (retries + reconnects per point, so recovery
//!    cost is visible, not just failure counts). See docs/fault-model.md.
//!
//! ```text
//! cargo run -p zc-bench --bin sweep_csv --release > sweep.csv
//! cargo run -p zc-bench --bin sweep_csv --release -- --modern        # 2003 desktop
//! cargo run -p zc-bench --bin sweep_csv --release -- --modeled-only  # skip host runs
//! cargo run -p zc-bench --bin sweep_csv --release -- --fault-only    # only section 3
//! cargo run -p zc-bench --bin sweep_csv --release -- --json          # JSON lines
//! ```

use zc_bench::report::{goodput_json, GoodputPoint};
use zc_bench::{
    fault_sweep_csv_header, fault_sweep_point, json_flag, measured_block_sizes, measured_point,
};
use zc_buffers::CopyLayer;
use zc_json::{Layout, Writer};
use zc_simnet::{run_sweep, LinkSpec, MachineSpec, FIGURE_CONFIGS};
use zc_trace::Stage;
use zc_ttcp::{run_modeled, TtcpVersion};

fn main() {
    let modern = std::env::args().any(|a| a == "--modern");
    let modeled_only = std::env::args().any(|a| a == "--modeled-only");
    let fault_only = std::env::args().any(|a| a == "--fault-only");
    let json = json_flag();
    if !fault_only {
        let machine = if modern {
            MachineSpec::modern_2003()
        } else {
            MachineSpec::pentium_ii_400()
        };
        let sweep = run_sweep(
            machine,
            LinkSpec::gigabit_ethernet(),
            &zc_simnet::paper_block_sizes(),
            &FIGURE_CONFIGS,
        );
        if !json {
            println!("# modeled (calibrated 2003 testbed)");
            print!("{}", sweep.to_csv());
        }
        if modeled_only && !json {
            return;
        }
        measured_section(json);
        if !json {
            println!();
        }
    }
    if json {
        for &p in &[0.0, 0.0005, 0.001, 0.002, 0.005, 0.01] {
            let pt = fault_sweep_point(p, 400, 64 << 10);
            let mut w = Writer::new();
            w.begin_object(Layout::Compact)
                .field_str("section", "fault")
                .field("drop_prob", format_args!("{:.4}", pt.drop_prob))
                .field("block_bytes", pt.block_bytes)
                .field("calls", pt.calls)
                .field("ok", pt.ok)
                .field("failed", pt.failed)
                .field("retries", pt.retries)
                .field("reconnects", pt.reconnects)
                .field("goodput_mbit_s", format_args!("{:.2}", pt.goodput_mbit_s))
                .end();
            println!("{}", w.finish());
        }
    } else {
        println!(
            "# fault sweep: per-frame drop probability vs goodput through the self-healing ORB"
        );
        println!("{}", fault_sweep_csv_header());
        for &p in &[0.0, 0.0005, 0.001, 0.002, 0.005, 0.01] {
            println!("{}", fault_sweep_point(p, 400, 64 << 10).to_csv_row());
        }
    }
}

fn measured_section(json: bool) {
    if !json {
        println!();
        println!("# measured on this host (telemetry-enabled runs)");
        println!(
            "version,block_bytes,mbit_s,overhead_copy_factor,spec_hits,spec_misses,\
             wire_bytes_sent,wire_bytes_recv,marshal_bytes,demarshal_bytes,\
             socket_send_bytes,socket_recv_bytes,kernel_frag_bytes,kernel_defrag_bytes,\
             deposit_fallback_bytes,latency_p50_ns,latency_p99_ns,\
             stage_marshal_p50_ns,stage_marshal_p99_ns,stage_wire_p50_ns,\
             stage_demarshal_p50_ns,stage_dispatch_p50_ns"
        );
    }
    for version in TtcpVersion::ALL {
        for &block in &measured_block_sizes(false) {
            let out = measured_point(version, block, true);
            let t = out.telemetry.expect("traced run produces telemetry");
            if json {
                let point = GoodputPoint {
                    version,
                    transport: "sim",
                    block_bytes: block,
                    modeled_mbit_s: run_modeled(version, block),
                    measured_mbit_s: out.mbit_s,
                    overhead_copy_factor: out.overhead_copy_factor,
                    spec_hit_rate: t.spec_hit_rate(),
                };
                println!("{}", goodput_json(&point));
                continue;
            }
            let lat = t.metrics.request_latency_ns;
            let stage = |s: Stage, q: f64| t.metrics.stage_ns.get(s).quantile(q);
            println!(
                "{},{},{:.1},{:.3},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                version.label().replace(',', ";"),
                block,
                out.mbit_s,
                out.overhead_copy_factor,
                t.transport.spec_hits,
                t.transport.spec_misses,
                t.transport.wire_bytes_sent,
                t.transport.wire_bytes_recv,
                out.copies.bytes(CopyLayer::Marshal),
                out.copies.bytes(CopyLayer::Demarshal),
                out.copies.bytes(CopyLayer::SocketSend),
                out.copies.bytes(CopyLayer::SocketRecv),
                out.copies.bytes(CopyLayer::KernelFrag),
                out.copies.bytes(CopyLayer::KernelDefrag),
                out.copies.bytes(CopyLayer::DepositFallback),
                lat.quantile(0.50),
                lat.quantile(0.99),
                stage(Stage::ClientMarshal, 0.50),
                stage(Stage::ClientMarshal, 0.99),
                stage(Stage::Wire, 0.50),
                stage(Stage::ServerDemarshal, 0.50),
                stage(Stage::ServerDispatch, 0.50),
            );
        }
    }
}
