//! Abstract syntax of the Enclave Definition Language subset the paper's
//! applications use.

use serde::{Deserialize, Serialize};

/// Buffer transfer mode, straight from the EDL attribute the programmer
/// writes (`[user_check]`, `[in]`, `[out]`, `[in, out]`).
///
/// Note the direction semantics invert between ecalls and ocalls (paper
/// §3.2.1 / §3.3): for an ecall `in` copies *into* the enclave; for an ocall
/// `in` copies *into the ocall*, i.e. out of the enclave.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// Zero-copy, no checks.
    UserCheck,
    /// Copied toward the callee.
    In,
    /// Allocated and zeroed at the callee, copied back to the caller.
    Out,
    /// Copied both ways.
    InOut,
}

impl Direction {
    /// The EDL attribute spelling.
    pub fn as_edl(&self) -> &'static str {
        match self {
            Direction::UserCheck => "user_check",
            Direction::In => "in",
            Direction::Out => "out",
            Direction::InOut => "in, out",
        }
    }
}

/// How a buffer's byte length is determined.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum SizeSpec {
    /// `size=4096` — a literal.
    Fixed(u64),
    /// `size=len` — the value parameter named here carries the length.
    Param(String),
}

/// One parameter of an edge function.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Param {
    /// Parameter name.
    pub name: String,
    /// The C type as written (`const uint8_t*`, `size_t`, ...).
    pub c_type: String,
    /// Value vs buffer semantics.
    pub kind: ParamKind,
}

/// Value or pointer semantics of a parameter.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ParamKind {
    /// Passed by value in the marshalled struct.
    Value {
        /// Size of the value in bytes.
        bytes: u64,
    },
    /// A pointer with a transfer attribute.
    Buffer {
        /// Transfer mode.
        direction: Direction,
        /// Length source.
        size: SizeSpec,
    },
}

/// One `ecall` or `ocall` declaration.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EdgeFn {
    /// Function name.
    pub name: String,
    /// `public` ecalls are callable from untrusted code at any time.
    pub public: bool,
    /// Declared parameters, in order.
    pub params: Vec<Param>,
    /// Does the function return a (value) result?
    pub returns_value: bool,
}

impl EdgeFn {
    /// Indexes of the buffer parameters, in declaration order.
    pub(crate) fn buffer_params(&self) -> impl Iterator<Item = (usize, &Param)> {
        self.params
            .iter()
            .enumerate()
            .filter(|(_, p)| matches!(p.kind, ParamKind::Buffer { .. }))
    }

    /// Number of buffer parameters.
    pub fn buffer_count(&self) -> usize {
        self.buffer_params().count()
    }

    /// Total bytes of by-value parameters (the marshalled struct payload).
    pub(crate) fn value_bytes(&self) -> u64 {
        self.params
            .iter()
            .map(|p| match p.kind {
                ParamKind::Value { bytes } => bytes,
                // A pointer travels as 8 bytes plus its size field.
                ParamKind::Buffer { .. } => 16,
            })
            .sum()
    }
}

/// A parsed EDL file: the `trusted` (ecall) and `untrusted` (ocall) blocks.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Edl {
    /// Functions callable *into* the enclave.
    pub trusted: Vec<EdgeFn>,
    /// Functions the enclave calls *out* to.
    pub untrusted: Vec<EdgeFn>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buf(name: &str, d: Direction) -> Param {
        Param {
            name: name.into(),
            c_type: "uint8_t*".into(),
            kind: ParamKind::Buffer {
                direction: d,
                size: SizeSpec::Param("len".into()),
            },
        }
    }

    fn val(name: &str, bytes: u64) -> Param {
        Param {
            name: name.into(),
            c_type: "size_t".into(),
            kind: ParamKind::Value { bytes },
        }
    }

    #[test]
    fn value_bytes_counts_pointers_as_16() {
        let f = EdgeFn {
            name: "f".into(),
            public: true,
            params: vec![buf("b", Direction::In), val("len", 8)],
            returns_value: false,
        };
        assert_eq!(f.value_bytes(), 24);
        assert_eq!(f.buffer_count(), 1);
    }

    #[test]
    fn direction_spellings() {
        assert_eq!(Direction::InOut.as_edl(), "in, out");
        assert_eq!(Direction::UserCheck.as_edl(), "user_check");
    }
}
