//! Quickstart: build an enclave, compare an SDK ocall against a HotCall.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use hotcalls_repro::hotcalls::sim::SimHotCalls;
use hotcalls_repro::hotcalls::HotCallConfig;
use hotcalls_repro::sgx_sdk::edl::parse_edl;
use hotcalls_repro::sgx_sdk::{EnclaveCtx, MarshalOptions};
use hotcalls_repro::sgx_sim::{EnclaveBuildOptions, Machine, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 4 GHz Skylake-like machine with SGX.
    let mut machine = Machine::new(SimConfig::default());

    // ECREATE/EADD/EEXTEND/EINIT with a standard layout.
    let enclave = machine.build_enclave(EnclaveBuildOptions::default())?;

    // Declare the interface in EDL, exactly as with the real SDK.
    let edl = parse_edl(
        "enclave {
             trusted { public void ecall_empty(); };
             untrusted { void ocall_log([in, size=len] const uint8_t* msg, size_t len); };
         };",
    )?;
    let mut ctx = EnclaveCtx::new(&mut machine, enclave, &edl, MarshalOptions::default())?;
    let mut hot = SimHotCalls::new(&mut machine, &ctx, HotCallConfig::default())?;

    // Warm up, then time one SDK ocall and one HotCall.
    ctx.enter_main(&mut machine)?;
    let msg = machine.alloc_enclave_heap(enclave, 64, 64)?;
    for _ in 0..3 {
        ctx.ocall(
            &mut machine,
            "ocall_log",
            &[hotcalls_repro::sgx_sdk::BufArg::new(msg, 64)],
            |_, _, _| Ok(()),
        )?;
        hot.hot_ocall(
            &mut machine,
            &mut ctx,
            "ocall_log",
            &[hotcalls_repro::sgx_sdk::BufArg::new(msg, 64)],
            |_, _, _| Ok(()),
        )?;
    }

    let start = machine.now();
    ctx.ocall(
        &mut machine,
        "ocall_log",
        &[hotcalls_repro::sgx_sdk::BufArg::new(msg, 64)],
        |_, _, _| Ok(()),
    )?;
    let sdk_cost = machine.now() - start;

    let start = machine.now();
    hot.hot_ocall(
        &mut machine,
        &mut ctx,
        "ocall_log",
        &[hotcalls_repro::sgx_sdk::BufArg::new(msg, 64)],
        |_, _, _| Ok(()),
    )?;
    let hot_cost = machine.now() - start;

    println!("SDK ocall:  {sdk_cost}");
    println!("HotCall:    {hot_cost}");
    println!(
        "speedup:    {:.1}x (the paper reports 13-27x)",
        sdk_cost.get() as f64 / hot_cost.get() as f64
    );
    Ok(())
}
