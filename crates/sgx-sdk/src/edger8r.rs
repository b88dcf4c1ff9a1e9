//! The edge-function generator ("edger8r").
//!
//! Intel's tool parses EDL and emits trusted + untrusted C glue. The
//! simulated equivalent emits [`ProxyPlan`]s — interpretable descriptions of
//! exactly the work that glue performs: parameter-struct layout, pointer
//! boundary checks, and per-buffer copy/zero operations. HotCalls reuses
//! these plans verbatim (paper §4.2: "the code to encapsulate parameters …
//! is the same code used by the SDK ecalls/ocalls mechanism").

use std::collections::HashMap;

use crate::edl::{Direction, EdgeFn, Edl, ParamKind, SizeSpec};
use crate::error::{Result, SdkError};

/// One buffer-marshalling step of a generated proxy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarshalStep {
    /// Which declared parameter this step handles (index into the EDL
    /// declaration).
    pub(crate) param_index: usize,
    /// Parameter name (diagnostics).
    pub(crate) param_name: String,
    /// Transfer mode.
    pub direction: Direction,
    /// Declared size source (validated against the EDL at generation time;
    /// the runtime length always comes from the caller, as in the SDK).
    pub(crate) size: SizeSpec,
}

/// The generated proxy for one edge function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProxyPlan {
    /// Edge-function name.
    pub(crate) name: String,
    /// Index in the call table (the SDK's `ocall_index` / ecall table slot,
    /// which HotCalls reuses as its `call_ID`).
    pub(crate) index: usize,
    /// Bytes of the marshalled parameter struct.
    pub struct_bytes: u64,
    /// Buffer steps in declaration order.
    pub steps: Vec<MarshalStep>,
    /// Does the function produce a return value (adds 8 bytes to the
    /// marshalled struct on the way back)?
    pub(crate) returns_value: bool,
}

/// The full output of generation: ecall and ocall tables with name lookup.
#[derive(Debug, Clone, Default)]
pub struct Proxies {
    /// Trusted-side table (ecalls).
    pub(crate) ecalls: Vec<ProxyPlan>,
    /// Untrusted-side table (ocalls).
    pub(crate) ocalls: Vec<ProxyPlan>,
    ecall_index: HashMap<String, usize>,
    ocall_index: HashMap<String, usize>,
}

impl Proxies {
    /// Looks up an ecall plan by name.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::UnknownFunction`] for undeclared names.
    pub fn ecall(&self, name: &str) -> Result<&ProxyPlan> {
        self.ecall_index
            .get(name)
            .map(|&i| &self.ecalls[i])
            .ok_or_else(|| SdkError::UnknownFunction(name.to_owned()))
    }

    /// Looks up an ocall plan by name.
    ///
    /// # Errors
    ///
    /// Returns [`SdkError::UnknownFunction`] for undeclared names.
    pub fn ocall(&self, name: &str) -> Result<&ProxyPlan> {
        self.ocall_index
            .get(name)
            .map(|&i| &self.ocalls[i])
            .ok_or_else(|| SdkError::UnknownFunction(name.to_owned()))
    }
}

fn generate_plan(f: &EdgeFn, index: usize) -> Result<ProxyPlan> {
    // Validate size= references: they must name a by-value parameter.
    for (i, p) in f.params.iter().enumerate() {
        if let ParamKind::Buffer {
            size: SizeSpec::Param(size_param),
            ..
        } = &p.kind
        {
            let ok = f
                .params
                .iter()
                .any(|q| q.name == *size_param && matches!(q.kind, ParamKind::Value { .. }));
            if !ok {
                return Err(SdkError::Edl(crate::edl::EdlError {
                    line: 0,
                    message: format!(
                        "`{}` parameter {} (`{}`): size={size_param} does not name a value parameter",
                        f.name, i, p.name
                    ),
                }));
            }
        }
    }
    let steps = f
        .params
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match &p.kind {
            ParamKind::Buffer { direction, size } => Some(MarshalStep {
                param_index: i,
                param_name: p.name.clone(),
                direction: *direction,
                size: size.clone(),
            }),
            ParamKind::Value { .. } => None,
        })
        .collect();
    Ok(ProxyPlan {
        name: f.name.clone(),
        index,
        struct_bytes: f.value_bytes() + 8, // +8: status/return slot
        steps,
        returns_value: f.returns_value,
    })
}

/// Generates proxy plans for every edge function in the EDL.
///
/// # Errors
///
/// Fails if a `size=` attribute references a parameter that is not a
/// by-value length.
///
/// # Examples
///
/// ```
/// use sgx_sdk::edl::parse_edl;
/// use sgx_sdk::edger8r::edger8r;
///
/// # fn main() -> Result<(), sgx_sdk::SdkError> {
/// let edl = parse_edl(
///     "enclave { untrusted {
///          void ocall_send([in, size=n] const uint8_t* b, size_t n);
///      }; };",
/// )?;
/// let proxies = edger8r(&edl)?;
/// assert_eq!(proxies.ocall("ocall_send")?.steps.len(), 1);
/// # Ok(())
/// # }
/// ```
pub fn edger8r(edl: &Edl) -> Result<Proxies> {
    let mut proxies = Proxies::default();
    for (i, f) in edl.trusted.iter().enumerate() {
        proxies.ecalls.push(generate_plan(f, i)?);
        proxies.ecall_index.insert(f.name.clone(), i);
    }
    for (i, f) in edl.untrusted.iter().enumerate() {
        proxies.ocalls.push(generate_plan(f, i)?);
        proxies.ocall_index.insert(f.name.clone(), i);
    }
    Ok(proxies)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edl::parse_edl;

    #[test]
    fn generates_tables_with_stable_indices() {
        let edl = parse_edl(
            "enclave {
                trusted { public void e0(); public void e1(); };
                untrusted { void o0(); void o1(); void o2(); };
             };",
        )
        .unwrap();
        let p = edger8r(&edl).unwrap();
        assert_eq!(p.ecall("e1").unwrap().index, 1);
        assert_eq!(p.ocall("o2").unwrap().index, 2);
        assert!(matches!(p.ocall("nope"), Err(SdkError::UnknownFunction(_))));
    }

    #[test]
    fn size_param_must_reference_value_param() {
        let edl = parse_edl(
            "enclave { untrusted {
                void bad([in, size=missing] const uint8_t* b, size_t n);
             }; };",
        )
        .unwrap();
        assert!(matches!(edger8r(&edl), Err(SdkError::Edl(_))));
    }

    #[test]
    fn struct_bytes_cover_values_pointers_and_status() {
        let edl = parse_edl(
            "enclave { untrusted {
                void f([in, size=n] const uint8_t* b, size_t n, int flags);
             }; };",
        )
        .unwrap();
        let p = edger8r(&edl).unwrap();
        // pointer 16 + size_t 8 + int 4 + status 8
        assert_eq!(p.ocall("f").unwrap().struct_bytes, 36);
    }

    #[test]
    fn steps_preserve_declaration_order() {
        let edl = parse_edl(
            "enclave { trusted {
                public void f([in, size=a] const uint8_t* x, size_t a,
                              [out, size=b] uint8_t* y, size_t b);
             }; };",
        )
        .unwrap();
        let p = edger8r(&edl).unwrap();
        let plan = p.ecall("f").unwrap();
        assert_eq!(plan.steps.len(), 2);
        assert_eq!(plan.steps[0].param_name, "x");
        assert_eq!(plan.steps[1].param_name, "y");
        assert_eq!(plan.steps[0].direction, crate::edl::Direction::In);
        assert_eq!(plan.steps[1].direction, crate::edl::Direction::Out);
    }
}
