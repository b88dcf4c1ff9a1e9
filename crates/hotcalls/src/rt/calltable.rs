//! The responder's call table: `call_ID` → handler, mirroring the SDK's
//! ocall-table indexing the paper reuses for HotCalls.

use crate::error::{HotCallError, Result};

/// A table of request handlers indexed by call id.
pub struct CallTable<Req, Resp> {
    handlers: Vec<Box<dyn Fn(Req) -> Resp + Send + Sync>>,
}

impl<Req, Resp> core::fmt::Debug for CallTable<Req, Resp> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("CallTable")
            .field("handlers", &self.handlers.len())
            .finish()
    }
}

impl<Req, Resp> Default for CallTable<Req, Resp> {
    fn default() -> Self {
        Self::new()
    }
}

impl<Req, Resp> CallTable<Req, Resp> {
    /// Creates an empty table.
    pub fn new() -> Self {
        CallTable {
            handlers: Vec::new(),
        }
    }

    /// Registers a handler and returns its call id.
    pub fn register<F>(&mut self, handler: F) -> u32
    where
        F: Fn(Req) -> Resp + Send + Sync + 'static,
    {
        self.handlers.push(Box::new(handler));
        (self.handlers.len() - 1) as u32
    }

    /// Runs the handler registered as `id` on `req`: the one dispatch of
    /// both planes' responders and of a ring's inline call.
    ///
    /// # Errors
    ///
    /// [`HotCallError::UnknownCallId`] if no handler has that id.
    #[inline]
    pub(crate) fn call(&self, id: u32, req: Req) -> Result<Resp> {
        match self.handlers.get(id as usize) {
            Some(handler) => Ok(handler(req)),
            None => Err(HotCallError::UnknownCallId(id)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_assigns_sequential_ids() {
        let mut t: CallTable<u64, u64> = CallTable::new();
        let a = t.register(|x| x + 1);
        let b = t.register(|x| x * 2);
        assert_eq!((a, b), (0, 1));
        assert_eq!(t.call(a, 5).unwrap(), 6);
        assert_eq!(t.call(b, 5).unwrap(), 10);
        assert!(matches!(t.call(9, 5), Err(HotCallError::UnknownCallId(9))));
    }
}
