//===- core/Tracer.cpp ----------------------------------------------------===//

#include "core/Tracer.h"

#include <cassert>
#include <ranges>

using namespace tfgc;

template <typename SizeFn>
bool TagFreeTracer::claim(Word V, Word &NewRef, CensusKind K,
                          SizeFn Words) {
  // tryClaim is the parallel arbitration seam (a serial Space claims
  // unconditionally). Word-0 reads — discriminants, closure code
  // addresses — in Words() are safe because only the claim winner reaches
  // them, and publish is what clobbers word 0.
  if (Sp.alreadyVisited(V, NewRef) || !Sp.tryClaim(V, NewRef))
    return false;
  uint32_t N = Words();
  NewRef = Sp.visitNew(V, N);
  St.add(StatId::GcObjectsVisited);
  St.add(StatId::GcWordsVisited, N);
  // Census and heap-profiler hooks: the (kind, words) increments mirror
  // the two counters above. The profiler also gets the old→new address
  // pair for its typed snapshot and allocation-site side table.
  if (Census)
    Census->record(K, N);
  else if (Tel)
    Tel->census(K, N);
  if (Prof) [[unlikely]]
    Prof->recordVisit(V, NewRef, K, N);
  return true;
}

static Word word0(Word V) { return *reinterpret_cast<const Word *>(V); }

Word TagFreeTracer::resolveCompiled(Word V, RoutineId R) {
  const TypeRoutine &TR = CM->routine(R);
  Word NewRef = 0;
  bool HasFields = false;
  switch (TR.F) {
  case TypeRoutine::Form::Leaf:
    return V;
  case TypeRoutine::Form::FunValue:
    return resolveClosure(V, nullptr, TR.FunStaticTy);
  case TypeRoutine::Form::Record:
  case TypeRoutine::Form::RefCell:
    if (V == 0)
      return 0;
    if (!claim(V, NewRef,
               TR.F == TypeRoutine::Form::RefCell ? CensusKind::Ref
                                                  : CensusKind::Tuple,
               [&] { return TR.PayloadWords; }))
      return NewRef;
    HasFields = !TR.Fields.empty();
    break;
  case TypeRoutine::Form::DataSwitch:
    if (V < ImmediateCtorLimit) // Covers nullary ctors and null.
      return V;
    if (!claim(V, NewRef, CensusKind::Data, [&] {
          Word Disc = word0(V);
          assert(Disc < TR.CtorSizes.size() && "corrupt discriminant");
          HasFields = !TR.CtorFields[Disc].empty();
          return TR.CtorSizes[Disc];
        }))
      return NewRef;
    break;
  }
  if (HasFields)
    GreyStack.emplace_back(NewRef, R);
  return NewRef;
}

DescBinding TagFreeTracer::resolveArg(DescId A, const DescEnvNode *Env) {
  const Descriptor &AD = descTable().desc(A);
  if (AD.Kind == DescKind::Param) {
    assert(Env && "Param descriptor with no environment");
    return Env->Binds[AD.A];
  }
  return DescBinding{A, Env};
}

bool TagFreeTracer::bindingsEqual(const DescBinding &A,
                                  const DescBinding &B) {
  if (A.D != B.D)
    return false;
  // Ground descriptors mean the same thing under every environment.
  return A.Env == B.Env || descTable().desc(A.D).Ground;
}

Word TagFreeTracer::resolveDesc(Word V, DescId D, const DescEnvNode *Env) {
  DescriptorTable &T = descTable();
  for (;;) {
    const Descriptor &Desc = T.desc(D);
    St.add(StatId::GcDescSteps);
    Word NewRef = 0;
    switch (Desc.Kind) {
    case DescKind::Leaf:
      return V;
    case DescKind::Param: {
      assert(Env && "Param descriptor outside a datatype context");
      DescBinding B = Env->Binds[Desc.A];
      D = B.D;
      Env = B.Env;
      continue;
    }
    case DescKind::Fun:
      return resolveClosure(V, nullptr, Desc.FunTy);
    case DescKind::Tuple:
    case DescKind::Ref:
      if (V == 0)
        return 0;
      if (!claim(V, NewRef,
                 Desc.Kind == DescKind::Ref ? CensusKind::Ref
                                            : CensusKind::Tuple,
                 [&] { return (uint32_t)Desc.Args.size(); }))
        return NewRef;
      break;
    case DescKind::Data:
      if (V < ImmediateCtorLimit)
        return V;
      if (!claim(V, NewRef, CensusKind::Data, [&] {
            return (uint32_t)(1 + T.ctorShape(Desc.A, (unsigned)word0(V))
                                      .size());
          }))
        return NewRef;
      break;
    }
    GreyStack.emplace_back(NewRef, D, Env);
    return NewRef;
  }
}

Word TagFreeTracer::resolveTg(Word V, const TypeGc *Tg) {
  St.add(StatId::GcTgSteps);
  Word NewRef = 0;
  switch (Tg->K) {
  case TypeGc::Kind::Const:
    return V;
  case TypeGc::Kind::Fun:
    return resolveClosure(V, Tg, nullptr);
  case TypeGc::Kind::Record:
  case TypeGc::Kind::Ref:
    if (V == 0)
      return 0;
    if (!claim(V, NewRef,
               Tg->K == TypeGc::Kind::Ref ? CensusKind::Ref
                                          : CensusKind::Tuple,
               [&] { return Tg->NumArgs; }))
      return NewRef;
    break;
  case TypeGc::Kind::Data:
    if (V < ImmediateCtorLimit)
      return V;
    if (!claim(V, NewRef, CensusKind::Data,
               [&] { return 1 + Tg->CtorFieldCounts[word0(V)]; }))
      return NewRef;
    break;
  }
  GreyStack.emplace_back(NewRef, Tg);
  return NewRef;
}

const TypeGc *TagFreeTracer::bindParam(const ClosureParamPath &P,
                                       const TypeGc *FunTg) {
  if (P.Found)
    return Eng.extract(FunTg, P.Path);
  assert(GlogerDummies &&
         "non-reconstructible closure reached the collector");
  St.add(StatId::GcGlogerDummies);
  return Eng.constGc();
}

Word TagFreeTracer::resolveClosure(Word V, const TypeGc *FunTg,
                                   Type *StaticFunTy) {
  if (V == 0)
    return 0; // Unpatched placeholder in a recursive closure group.
  FuncId L = 0;
  Word NewRef = 0;
  if (!claim(V, NewRef, CensusKind::Closure, [&] {
        L = (FuncId)Img.closureMetaAt((uint32_t)word0(V));
        return Method == TraceMethod::Compiled
                   ? CM->closureRoutine(L).PayloadWords
                   : closureDescriptor(L).PayloadWords;
      }))
    return NewRef;
  if (!FunTg && !Prog.fn(L).TypeParams.empty()) {
    assert(StaticFunTy && "no function type available for extraction");
    TgEnv Empty;
    FunTg = Eng.eval(StaticFunTy, Empty);
  }
  GreyStack.emplace_back(NewRef, L, FunTg);
  return NewRef;
}

void TagFreeTracer::drain() {
  while (!GreyStack.empty()) {
    // The entry is read field by field, then popped: a wide copy of an
    // entry pushed a moment ago stalls on store forwarding.
    const Grey &G = GreyStack.back();
    Word Obj = G.Obj;
    uint32_t Id = G.Id;
    switch (G.C) {
    case Grey::Code::Routine:
      GreyStack.pop_back();
      scanRoutine(Obj, Id);
      break;
    case Grey::Code::Desc: {
      const DescEnvNode *Env = G.Env;
      GreyStack.pop_back();
      scanDesc(Obj, Id, Env);
      break;
    }
    case Grey::Code::Tg: {
      const TypeGc *Tg = G.Tg;
      GreyStack.pop_back();
      scanTg(Obj, Tg);
      break;
    }
    case Grey::Code::Closure: {
      const TypeGc *FunTg = G.Tg;
      GreyStack.pop_back();
      scanClosure(Obj, Id, FunTg);
      break;
    }
    }
  }
}

void TagFreeTracer::drainRoot(uint32_t Func, uint32_t Slot, Word Value,
                              bool MayRef) {
  drain();
  if (EdgeRec && MayRef) [[unlikely]]
    Prof->recordRoot(Func, Slot, Value);
}

void TagFreeTracer::scanRoutine(Word Obj, RoutineId R) {
  Word *Pl = Sp.payload(Obj);
  const TypeRoutine &TR = CM->routine(R);
  for (const FieldAction &A :
       std::views::reverse(TR.F == TypeRoutine::Form::DataSwitch
                               ? TR.CtorFields[Pl[0]]
                               : TR.Fields)) {
    St.add(StatId::GcCompiledActions);
    setField(Obj, A.Offset, resolveCompiled(Pl[A.Offset], A.Routine));
  }
}

void TagFreeTracer::scanDesc(Word Obj, DescId D, const DescEnvNode *Env) {
  Word *Pl = Sp.payload(Obj);
  const Descriptor &Desc = descTable().desc(D);
  if (Desc.Kind == DescKind::Data)
    return scanDescData(Obj, D, Env, Desc);
  // Tuple or Ref. The interpreted method walks the descriptor for every
  // field, even ones with nothing to trace.
  for (uint32_t I = (uint32_t)Desc.Args.size(); I-- > 0;)
    setField(Obj, I, resolveDesc(Pl[I], Desc.Args[I], Env),
             EdgeRec && !isLeaf(resolveArg(Desc.Args[I], Env).D));
}

void TagFreeTracer::scanTg(Word Obj, const TypeGc *Tg) {
  Word *Pl = Sp.payload(Obj);
  const TypeGc *const *Fields = Tg->Args;
  uint32_t N = Tg->NumArgs, Off = 0;
  if (Tg->K == TypeGc::Kind::Data) {
    Fields = Tg->CtorFields[Pl[0]];
    N = Tg->CtorFieldCounts[Pl[0]];
    Off = 1;
  }
  for (uint32_t I = N; I-- > 0;)
    if (Fields[I]->K != TypeGc::Kind::Const) // const_gc: nothing to do.
      setField(Obj, Off + I, resolveTg(Pl[Off + I], Fields[I]));
}

void TagFreeTracer::scanDescData(Word Obj, DescId D, const DescEnvNode *Env,
                                 const Descriptor &Desc) {
  DescriptorTable &T = descTable();
  Word *Pl = Sp.payload(Obj);
  const std::vector<DescId> &Shape = T.ctorShape(Desc.A, (unsigned)Pl[0]);

  // Effective bindings of this datatype's parameters: the Data
  // descriptor's argument descriptors resolved under the current
  // environment (the run-time analogue of instantiating the shape).
  DataBinds.clear();
  for (DescId A : Desc.Args)
    DataBinds.push_back(resolveArg(A, Env));

  // A shape field referring to the same datatype with identical
  // effective bindings is a self reference: it is traced in the current
  // (D, Env) context, so the list spine allocates no environment.
  auto IsSelf = [&](DescId F) {
    const Descriptor &FD = T.desc(F);
    if (FD.Kind != DescKind::Data || FD.A != Desc.A ||
        FD.Args.size() != DataBinds.size())
      return false;
    for (size_t I = 0; I < FD.Args.size(); ++I) {
      const Descriptor &AD = T.desc(FD.Args[I]);
      DescBinding B = AD.Kind == DescKind::Param
                          ? DataBinds[AD.A]
                          : DescBinding{FD.Args[I], nullptr};
      if (AD.Kind != DescKind::Param && !AD.Ground)
        return false; // Conservative: fall back to a fresh env.
      if (!bindingsEqual(B, DataBinds[I]))
        return false;
    }
    return true;
  };

  const DescEnvNode *FieldEnv = nullptr;
  for (size_t I = Shape.size(); I-- > 0;) {
    DescId F = Shape[I];
    const Descriptor &FD = T.desc(F);
    uint32_t Off = (uint32_t)(1 + I);
    if (FD.Kind == DescKind::Param) {
      DescBinding B = DataBinds[FD.A];
      setField(Obj, Off, resolveDesc(Pl[Off], B.D, B.Env),
               EdgeRec && !isLeaf(B.D));
    } else if (IsSelf(F)) {
      setField(Obj, Off, resolveDesc(Pl[Off], D, Env));
    } else if (FD.Ground) {
      setField(Obj, Off, resolveDesc(Pl[Off], F, nullptr),
               EdgeRec && !isLeaf(F));
    } else {
      // Open template field: needs the instantiated environment.
      if (!FieldEnv) {
        EnvStorage.emplace_back();
        EnvStorage.back().Binds = DataBinds;
        FieldEnv = &EnvStorage.back();
      }
      setField(Obj, Off, resolveDesc(Pl[Off], F, FieldEnv));
    }
  }
}

const ClosureDescriptor &TagFreeTracer::closureDescriptor(FuncId L) const {
  return Method == TraceMethod::Interpreted ? IM->closureDescriptor(L)
                                            : AM->closureDescriptor(L);
}

void TagFreeTracer::scanClosure(Word Obj, FuncId L, const TypeGc *FunTg) {
  const IrFunction &LF = Prog.fn(L);
  const ClosureRoutine *CR =
      Method == TraceMethod::Compiled ? &CM->closureRoutine(L) : nullptr;
  const ClosureDescriptor *CD = CR ? nullptr : &closureDescriptor(L);

  // Recover the lambda's type parameters from its function-type routine
  // (paper Figure 4).
  ClosureBinds.clear();
  if (!LF.TypeParams.empty())
    for (const ClosureParamPath &P : CR ? CR->ParamPaths : CD->ParamPaths)
      ClosureBinds.push_back(bindParam(P, FunTg));
  TgEnv Env;
  Env.Params = &LF.TypeParams;
  Env.Binds = ClosureBinds.data();

  Word *Pl = Sp.payload(Obj);
  for (const OpenAction &A : std::views::reverse(CR ? CR->Open : CD->Open))
    setField(Obj, A.Index, resolveTg(Pl[A.Index], Eng.eval(A.Ty, Env)));
  if (CR) {
    for (const FieldAction &A : std::views::reverse(CR->Fields)) {
      St.add(StatId::GcCompiledActions);
      setField(Obj, A.Offset, resolveCompiled(Pl[A.Offset], A.Routine));
    }
  } else {
    for (const FrameDescriptor::SlotDesc &F : std::views::reverse(CD->Fields))
      setField(Obj, F.Slot, resolveDesc(Pl[F.Slot], F.Desc, nullptr));
  }
}

void TagFreeTracer::traceFrame(Word *Slots, const FrameRoutine &FR,
                               const TgEnv *Env, uint32_t Func) {
  for (const FrameRoutine::SlotAction &A : FR.Slots) {
    St.add(StatId::GcSlotsTraced);
    Slots[A.Slot] = resolveCompiled(Slots[A.Slot], A.Routine);
    drainRoot(Func, A.Slot, Slots[A.Slot], true);
  }
  for (const OpenAction &A : FR.Open) {
    St.add(StatId::GcSlotsTraced);
    assert(Env && "open slot without type parameter bindings");
    Slots[A.Index] = resolveTg(Slots[A.Index], Eng.eval(A.Ty, *Env));
    drainRoot(Func, A.Index, Slots[A.Index], true);
  }
}

void TagFreeTracer::traceFrame(Word *Slots, const FrameDescriptor &FD,
                               const TgEnv *Env, uint32_t Func) {
  for (const FrameDescriptor::SlotDesc &A : FD.Slots) {
    St.add(StatId::GcSlotsTraced);
    Slots[A.Slot] = resolveDesc(Slots[A.Slot], A.Desc, nullptr);
    drainRoot(Func, A.Slot, Slots[A.Slot], EdgeRec && !isLeaf(A.Desc));
  }
  for (const OpenAction &A : FD.Open) {
    St.add(StatId::GcSlotsTraced);
    assert(Env && "open slot without type parameter bindings");
    Slots[A.Index] = resolveTg(Slots[A.Index], Eng.eval(A.Ty, *Env));
    drainRoot(Func, A.Index, Slots[A.Index], true);
  }
}

void TagFreeTracer::traceSlot(Word *Slot, Type *GroundTy) {
  St.add(StatId::GcSlotsTraced);
  TgEnv Env; // Ground types have no type parameters to bind.
  *Slot = resolveTg(*Slot, Eng.eval(GroundTy, Env));
  drain();
}
