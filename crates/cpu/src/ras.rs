//! Return Address Stack — 100 entries per thread (Fig. 1, replicated).
//!
//! The traces tag unconditional branches as calls, returns or plain
//! jumps (`UncondKind`). At fetch a correct-path call pushes its
//! fall-through address and a return pops its predicted target; an
//! empty stack falls back to the BTB, which never learns return
//! targets, so an underflowing return misfetches. Squashes do not
//! repair the stack.

/// Fixed-depth return-address stack with wrap-around overwrite (the
/// standard hardware behaviour: pushing onto a full stack overwrites the
/// oldest entry; popping an empty stack mispredicts).
#[derive(Debug, Clone)]
pub struct ReturnAddressStack {
    entries: Vec<u64>,
    capacity: usize,
    top: usize,
    len: usize,
}

impl ReturnAddressStack {
    /// Stack with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        ReturnAddressStack {
            entries: vec![0; capacity],
            capacity,
            top: 0,
            len: 0,
        }
    }

    /// Push a return address (call).
    pub fn push(&mut self, addr: u64) {
        self.entries[self.top] = addr;
        self.top = (self.top + 1) % self.capacity;
        self.len = (self.len + 1).min(self.capacity);
    }

    /// Pop the predicted return address (return); `None` on underflow.
    pub fn pop(&mut self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        self.top = (self.top + self.capacity - 1) % self.capacity;
        self.len -= 1;
        Some(self.entries[self.top])
    }

    /// Peek without popping.
    pub fn peek(&self) -> Option<u64> {
        if self.len == 0 {
            None
        } else {
            Some(self.entries[(self.top + self.capacity - 1) % self.capacity])
        }
    }

    /// Current depth.
    pub fn depth(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifo_order() {
        let mut r = ReturnAddressStack::new(100);
        r.push(0x10);
        r.push(0x20);
        r.push(0x30);
        assert_eq!(r.pop(), Some(0x30));
        assert_eq!(r.pop(), Some(0x20));
        assert_eq!(r.pop(), Some(0x10));
        assert_eq!(r.pop(), None);
    }

    #[test]
    fn overflow_overwrites_oldest() {
        let mut r = ReturnAddressStack::new(2);
        r.push(1);
        r.push(2);
        r.push(3); // overwrites 1
        assert_eq!(r.pop(), Some(3));
        assert_eq!(r.pop(), Some(2));
        assert_eq!(r.pop(), None, "entry 1 was overwritten");
    }

    #[test]
    fn peek_is_non_destructive() {
        let mut r = ReturnAddressStack::new(4);
        r.push(42);
        assert_eq!(r.peek(), Some(42));
        assert_eq!(r.depth(), 1);
        assert_eq!(r.pop(), Some(42));
        assert_eq!(r.peek(), None);
    }

    #[test]
    fn underflow_mispredicts() {
        let mut r = ReturnAddressStack::new(4);
        assert_eq!(r.pop(), None);
        assert_eq!(r.pop(), None);
        assert_eq!(r.depth(), 0);
    }

    #[test]
    fn deep_call_chains_within_capacity() {
        let mut r = ReturnAddressStack::new(100);
        for i in 0..100u64 {
            r.push(i);
        }
        assert_eq!(r.depth(), 100);
        for i in (0..100u64).rev() {
            assert_eq!(r.pop(), Some(i));
        }
    }
}
