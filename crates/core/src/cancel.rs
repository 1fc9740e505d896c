//! Cooperative cancellation for the anytime search loops.
//!
//! A [`CancelToken`] is a cheap, cloneable handle that every long-running
//! stage of the scheduling pipeline polls: the `HC` work-list loop and the
//! `HCcs` loop.  Both are *anytime* — they hold a valid schedule at every
//! step and only ever replace it with a cheaper one — so cancellation is safe
//! at any poll point: the caller always gets back its best-so-far **valid**
//! schedule.
//!
//! A token can fire two ways:
//!
//! * explicitly, via [`CancelToken::cancel`] (e.g. the serving layer's
//!   graceful shutdown), and
//! * implicitly, once a wall-clock **deadline** passes — the mechanism behind
//!   the deadline-aware requests of `bsp_serve`.
//!
//! The default token is *inert*: it never fires and polling it is one branch
//! on a `None`, so code paths that do not use cancellation pay nothing.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable cooperative-cancellation handle (see the module docs).
///
/// Clones share the underlying flag: cancelling any clone cancels them all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Option<Arc<AtomicBool>>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// An inert token that never fires (the default).
    pub fn inert() -> Self {
        CancelToken::default()
    }

    /// A token that fires when [`CancelToken::cancel`] is called.
    pub fn new() -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: None,
        }
    }

    /// A token that fires at `deadline` (and on [`CancelToken::cancel`]).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            flag: Some(Arc::new(AtomicBool::new(false))),
            deadline: Some(deadline),
        }
    }

    /// Returns this token with its deadline tightened to `deadline` (keeps
    /// the earlier of the two if one is already set).  Shares the flag with
    /// `self`, so an explicit [`CancelToken::cancel`] still fires both.
    pub fn tightened(&self, deadline: Instant) -> Self {
        CancelToken {
            flag: self.flag.clone(),
            deadline: Some(self.deadline.map_or(deadline, |d| d.min(deadline))),
        }
    }

    /// Fires the token: every clone's [`CancelToken::is_cancelled`] returns
    /// `true` from now on.  No-op on an inert token.
    pub fn cancel(&self) {
        if let Some(flag) = &self.flag {
            flag.store(true, Ordering::Relaxed);
        }
    }

    /// `true` once the token has fired (explicitly or by deadline).
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        match &self.flag {
            None => self.deadline.is_some_and(|d| Instant::now() >= d),
            Some(flag) => {
                flag.load(Ordering::Relaxed) || self.deadline.is_some_and(|d| Instant::now() >= d)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn inert_token_never_fires() {
        let t = CancelToken::inert();
        assert!(!t.is_cancelled());
        t.cancel(); // no-op
        assert!(!t.is_cancelled());
    }

    #[test]
    fn explicit_cancel_fires_every_clone() {
        let t = CancelToken::new();
        let clone = t.clone();
        assert!(!clone.is_cancelled());
        t.cancel();
        assert!(clone.is_cancelled());
        assert!(t.is_cancelled());
    }

    #[test]
    fn past_deadline_fires() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let u = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!u.is_cancelled());
    }

    #[test]
    fn tightened_keeps_the_earlier_deadline_and_the_flag() {
        let far = Instant::now() + Duration::from_secs(3600);
        let near = Instant::now() - Duration::from_millis(1);
        let t = CancelToken::with_deadline(far);
        assert!(t.tightened(near).is_cancelled());
        assert!(!t.tightened(far).is_cancelled());
        // Tightening an already-near deadline with a far one keeps the near one.
        let n = CancelToken::with_deadline(near);
        assert!(n.tightened(far).is_cancelled());
        // The flag is shared through tightening.
        let child = t.tightened(far);
        t.cancel();
        assert!(child.is_cancelled());
    }
}
