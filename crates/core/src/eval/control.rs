//! Control generators: `&&`, `||`, `if`, `while`, `for`, sequencing,
//! imply, and discard.

use crate::{apply, error::DuelResult, scope::Ctx, value::Value};

use super::{Gen, GenT};

/// `e1 && e2` — "produces all of the values of e2 for each non-zero
/// value produced by e1":
///
/// ```text
/// case ANDAND:
///   while (u = eval(n->kids[0]))
///     if (u != 0)
///       while (v = eval(n->kids[1])) yield v
/// ```
struct AndAndGen {
    l: Gen,
    r: Gen,
    active: bool,
}

impl GenT for AndAndGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if !self.active {
                match self.l.next(ctx)? {
                    Some(u) => {
                        if apply::truthy(&mut ctx.target, &u)? {
                            self.active = true;
                        }
                    }
                    None => return Ok(None),
                }
            } else {
                match self.r.next(ctx)? {
                    Some(v) => return Ok(Some(v)),
                    None => self.active = false,
                }
            }
        }
    }

    fn reset(&mut self) {
        self.l.reset();
        self.r.reset();
        self.active = false;
    }
}

/// `e1 && e2`.
pub fn andand(l: Gen, r: Gen) -> Gen {
    Box::new(AndAndGen {
        l,
        r,
        active: false,
    })
}

/// `e1 || e2` — the dual of `&&`: non-zero values of `e1` pass through;
/// for each zero value, `e2`'s values are produced. Equivalent to C for
/// single-valued operands.
struct OrOrGen {
    l: Gen,
    r: Gen,
    active: bool,
}

impl GenT for OrOrGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if !self.active {
                match self.l.next(ctx)? {
                    Some(u) => {
                        if apply::truthy(&mut ctx.target, &u)? {
                            return Ok(Some(u));
                        }
                        self.active = true;
                    }
                    None => return Ok(None),
                }
            } else {
                match self.r.next(ctx)? {
                    Some(v) => return Ok(Some(v)),
                    None => self.active = false,
                }
            }
        }
    }

    fn reset(&mut self) {
        self.l.reset();
        self.r.reset();
        self.active = false;
    }
}

/// `e1 || e2`.
pub fn oror(l: Gen, r: Gen) -> Gen {
    Box::new(OrOrGen {
        l,
        r,
        active: false,
    })
}

/// `if (e1) e2 [else e3]` — for each non-zero value of `e1`, all values
/// of `e2`; for each zero value, all values of `e3`:
///
/// ```text
/// case IF:
///   while (u = eval(n->kids[0]))
///     if (u != 0) while (v = eval(n->kids[1])) yield v
///     else        while (v = eval(n->kids[2])) yield v
/// ```
struct IfGen {
    c: Gen,
    t: Gen,
    f: Option<Gen>,
    /// `None` = draw from condition; `Some(true/false)` = streaming the
    /// then/else branch.
    branch: Option<bool>,
}

impl GenT for IfGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            match self.branch {
                None => match self.c.next(ctx)? {
                    Some(u) => {
                        let b = apply::truthy(&mut ctx.target, &u)?;
                        if b || self.f.is_some() {
                            self.branch = Some(b);
                        }
                    }
                    None => return Ok(None),
                },
                Some(true) => match self.t.next(ctx)? {
                    Some(v) => return Ok(Some(v)),
                    None => self.branch = None,
                },
                Some(false) => {
                    let f = self.f.as_mut().expect("branch checked");
                    match f.next(ctx)? {
                        Some(v) => return Ok(Some(v)),
                        None => self.branch = None,
                    }
                }
            }
        }
    }

    fn reset(&mut self) {
        self.c.reset();
        self.t.reset();
        if let Some(f) = self.f.as_mut() {
            f.reset();
        }
        self.branch = None;
    }
}

/// `if` / `?:` as an expression.
pub fn if_gen(c: Gen, t: Gen, f: Option<Gen>) -> Gen {
    Box::new(IfGen {
        c,
        t,
        f,
        branch: None,
    })
}

/// `while (e1) e2` — "produces e2 only if all of the values of e1 are
/// non-zero", restarting after each full round:
///
/// ```text
/// case WHILE:
///   for (;;) {
///     while (u = eval(n->kids[0])) if (u == 0) return NOVALUE
///     while (v = eval(n->kids[1])) yield v
///   }
/// ```
struct WhileGen {
    c: Gen,
    body: Gen,
    in_body: bool,
}

impl GenT for WhileGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if !self.in_body {
                // Drain the condition; any zero value ends the loop.
                while let Some(u) = self.c.next(ctx)? {
                    if !apply::truthy(&mut ctx.target, &u)? {
                        // Rewind for the next evaluation.
                        self.c.reset();
                        return Ok(None);
                    }
                }
                self.in_body = true;
            }
            match self.body.next(ctx)? {
                Some(v) => return Ok(Some(v)),
                None => self.in_body = false,
            }
        }
    }

    fn reset(&mut self) {
        self.c.reset();
        self.body.reset();
        self.in_body = false;
    }
}

/// `while` as an expression.
pub fn while_gen(c: Gen, body: Gen) -> Gen {
    Box::new(WhileGen {
        c,
        body,
        in_body: false,
    })
}

/// `for (init; cond; step) body` — C's `for` cast as an expression that
/// produces the body's values on every iteration.
struct ForGen {
    init: Option<Gen>,
    cond: Option<Gen>,
    step: Option<Gen>,
    body: Gen,
    phase: ForPhase,
}

#[derive(PartialEq)]
enum ForPhase {
    Init,
    Cond,
    Body,
    Step,
    Done,
}

impl GenT for ForGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            match self.phase {
                ForPhase::Init => {
                    if let Some(init) = self.init.as_mut() {
                        while init.next(ctx)?.is_some() {}
                    }
                    self.phase = ForPhase::Cond;
                }
                ForPhase::Cond => {
                    let mut go = true;
                    if let Some(cond) = self.cond.as_mut() {
                        // As with `while`: every value must be non-zero.
                        while let Some(u) = cond.next(ctx)? {
                            if !apply::truthy(&mut ctx.target, &u)? {
                                go = false;
                                cond.reset();
                                break;
                            }
                        }
                    }
                    self.phase = if go { ForPhase::Body } else { ForPhase::Done };
                }
                ForPhase::Body => match self.body.next(ctx)? {
                    Some(v) => return Ok(Some(v)),
                    None => self.phase = ForPhase::Step,
                },
                ForPhase::Step => {
                    if let Some(step) = self.step.as_mut() {
                        while step.next(ctx)?.is_some() {}
                    }
                    self.phase = ForPhase::Cond;
                }
                ForPhase::Done => {
                    self.phase = ForPhase::Init;
                    return Ok(None);
                }
            }
        }
    }

    fn reset(&mut self) {
        if let Some(g) = self.init.as_mut() {
            g.reset();
        }
        if let Some(g) = self.cond.as_mut() {
            g.reset();
        }
        if let Some(g) = self.step.as_mut() {
            g.reset();
        }
        self.body.reset();
        self.phase = ForPhase::Init;
    }
}

/// `for` as an expression.
pub fn for_gen(init: Option<Gen>, cond: Option<Gen>, step: Option<Gen>, body: Gen) -> Gen {
    Box::new(ForGen {
        init,
        cond,
        step,
        body,
        phase: ForPhase::Init,
    })
}

/// `e1 ; e2` — "evaluates e1 but discards its values, and then produces
/// the values of e2":
///
/// ```text
/// case SEQUENCE:
///   while (u = eval(n->kids[0])) ;
///   while (v = eval(n->kids[1])) yield v
/// ```
struct SeqGen {
    l: Gen,
    r: Gen,
    drained: bool,
}

impl GenT for SeqGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        if !self.drained {
            while self.l.next(ctx)?.is_some() {}
            self.drained = true;
        }
        match self.r.next(ctx)? {
            Some(v) => Ok(Some(v)),
            None => {
                self.drained = false;
                Ok(None)
            }
        }
    }

    fn reset(&mut self) {
        self.l.reset();
        self.r.reset();
        self.drained = false;
    }
}

/// `e1 ; e2`.
pub fn seq(l: Gen, r: Gen) -> Gen {
    Box::new(SeqGen {
        l,
        r,
        drained: false,
    })
}

/// A trailing `;`: evaluate for side effects, produce nothing.
struct DiscardGen {
    e: Gen,
}

impl GenT for DiscardGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        while self.e.next(ctx)?.is_some() {}
        Ok(None)
    }

    fn reset(&mut self) {
        self.e.reset();
    }
}

/// `e ;`.
pub fn discard(e: Gen) -> Gen {
    Box::new(DiscardGen { e })
}

/// `e1 => e2` — "produces e2's values for each value of e1":
///
/// ```text
/// case IMPLY:
///   while (u = eval(n->kids[0]))
///     while (v = eval(n->kids[1])) yield v
/// ```
struct ImplyGen {
    l: Gen,
    r: Gen,
    active: bool,
}

impl GenT for ImplyGen {
    fn next(&mut self, ctx: &mut Ctx<'_>) -> DuelResult<Option<Value>> {
        loop {
            if !self.active {
                match self.l.next(ctx)? {
                    Some(_) => self.active = true,
                    None => return Ok(None),
                }
            }
            match self.r.next(ctx)? {
                Some(v) => return Ok(Some(v)),
                None => self.active = false,
            }
        }
    }

    fn reset(&mut self) {
        self.l.reset();
        self.r.reset();
        self.active = false;
    }
}

/// `e1 => e2`.
pub fn imply(l: Gen, r: Gen) -> Gen {
    Box::new(ImplyGen {
        l,
        r,
        active: false,
    })
}
