//===- core/Tracer.h - Tag-free tracing engine ------------------*- C++ -*-===//
///
/// \file
/// Executes the compiler-generated GC metadata over untagged heap values.
/// One instance lives for the duration of a single collection. Three type
/// codes exist, matching the artifacts the compiler produced:
///
///   RoutineId              flat compiled type routines (the compiled
///                          method)
///   (DescId, DescEnvNode*) descriptor-graph interpretation (the
///                          interpreted method / Appel's descriptors)
///   TypeGc*                type-GC-routine closures built during this
///                          collection (polymorphic slots, paper section 3)
///
/// Closure values are traced through their code pointer: the word before
/// the code entry names the lambda, whose metadata gives the environment
/// layout and the extraction paths for its type parameters (sections 2.2
/// and 3, Figure 4).
///
/// An object has no header, so its type is known only from the code that
/// reached it. Resolving a field claims the child (copy or mark), patches
/// the field and, when the child has fields of its own, pushes it onto an
/// explicit grey stack together with that type code. A drain loop pops
/// and scans grey objects, so C++ stack depth does not depend on the
/// shape of the heap.
///
//===----------------------------------------------------------------------===//

#ifndef TFGC_CORE_TRACER_H
#define TFGC_CORE_TRACER_H

#include "core/Space.h"
#include "core/TypeGc.h"
#include "gcmeta/AppelMeta.h"
#include "gcmeta/CodeImage.h"
#include "gcmeta/CompiledRoutines.h"
#include "gcmeta/InterpretedMeta.h"
#include "support/HeapProfile.h"

#include <deque>

namespace tfgc {

enum class TraceMethod : uint8_t { Compiled, Interpreted, Appel };

/// Binding of one datatype parameter during descriptor interpretation:
/// a descriptor plus the environment its own Param nodes resolve in.
struct DescEnvNode;
struct DescBinding {
  DescId D = 0;
  const DescEnvNode *Env = nullptr;
};
struct DescEnvNode {
  std::vector<DescBinding> Binds;
};

class TagFreeTracer {
public:
  TagFreeTracer(const IrProgram &Prog, const CodeImage &Img,
                TypeGcEngine &Eng, Space &Sp, Stats &St, TraceMethod Method,
                const CompiledMetadata *CM, InterpretedMetadata *IM,
                AppelMetadata *AM, bool GlogerDummies = false,
                Telemetry *Tel = nullptr, HeapProfiler *Prof = nullptr)
      : Prog(Prog), Img(Img), Eng(Eng), Sp(Sp), St(St), Method(Method),
        CM(CM), IM(IM), AM(AM), GlogerDummies(GlogerDummies), Tel(Tel),
        Prof(Prof),
        EdgeRec(Prof != nullptr && Prof->edgesActive()) {}

  /// Binds one closure type parameter: by extraction path, or — under the
  /// Goldberg & Gloger '92 rule — to const_gc when no path exists (a value
  /// whose type cannot be reconstructed can never be inspected, so it need
  /// not be traced).
  const TypeGc *bindParam(const ClosureParamPath &P, const TypeGc *FunTg);

  /// Frame tracing (Env required whenever the routine has open slots).
  /// \p Func names the frame's function: each traced slot is a heap-graph
  /// root labeled Func:slot while a graph capture runs.
  void traceFrame(Word *Slots, const FrameRoutine &FR, const TgEnv *Env,
                  uint32_t Func);
  void traceFrame(Word *Slots, const FrameDescriptor &FD, const TgEnv *Env,
                  uint32_t Func);

  /// One remembered tenured slot of a minor collection. The write barrier
  /// records only ground-typed stores, so \p GroundTy alone types it.
  void traceSlot(Word *Slot, Type *GroundTy);

  /// Routes census increments into a thread-local accumulator instead of
  /// the (shared, unsynchronized) Telemetry event. Parallel GC workers
  /// set this on their private tracer; the collecting thread merges the
  /// accumulators with Telemetry::censusBulk after the workers join.
  void setCensusSink(CensusCounts *C) { Census = C; }

private:
  /// A claimed object whose fields are not scanned yet, with the type code
  /// that scans them. Environments and Figure 3 closures live for the
  /// whole collection, so the entry can point at them.
  struct Grey {
    enum class Code : uint8_t { Routine, Desc, Tg, Closure };
    Grey(Word Obj, RoutineId R)
        : Obj(Obj), Env(nullptr), Id(R), C(Code::Routine) {}
    Grey(Word Obj, DescId D, const DescEnvNode *Env)
        : Obj(Obj), Env(Env), Id(D), C(Code::Desc) {}
    Grey(Word Obj, const TypeGc *Tg) : Obj(Obj), Tg(Tg), Id(0), C(Code::Tg) {}
    Grey(Word Obj, FuncId L, const TypeGc *FunTg)
        : Obj(Obj), Tg(FunTg), Id(L), C(Code::Closure) {}

    Word Obj; ///< Post-move reference.
    union {
      const DescEnvNode *Env; ///< Desc: resolves the descriptor's Params.
      const TypeGc *Tg;       ///< Tg: the object's routine. Closure: the
                              ///< function-type routine, or null when the
                              ///< lambda has no type parameters.
    };
    uint32_t Id; ///< Routine: RoutineId. Desc: DescId. Closure: FuncId.
    Code C;
  };

  const IrProgram &Prog;
  const CodeImage &Img;
  TypeGcEngine &Eng;
  Space &Sp;
  Stats &St;
  TraceMethod Method;
  const CompiledMetadata *CM;
  InterpretedMetadata *IM;
  AppelMetadata *AM;
  bool GlogerDummies;
  Telemetry *Tel;
  HeapProfiler *Prof;
  CensusCounts *Census = nullptr;
  /// Cached at construction (tracers are built per collection, after the
  /// profiler decided whether this collection's graph is captured): the
  /// edge hook below stays a single predictable branch when off.
  const bool EdgeRec = false;
  /// Empty between traced root slots; owned by this tracer, so each
  /// parallel GC worker drains its own.
  std::vector<Grey> GreyStack;
  /// Environments built during this collection (stable addresses).
  std::deque<DescEnvNode> EnvStorage;
  /// Scratch for the one object being scanned.
  std::vector<DescBinding> DataBinds;
  std::vector<const TypeGc *> ClosureBinds;

  /// The one first-visit path. Sets \p NewRef to \p V's post-collection
  /// reference and returns true when this call claimed the object (copied
  /// or marked it), so its fields still need scanning. \p Words is called
  /// only after a successful claim and returns the payload size.
  template <typename SizeFn>
  bool claim(Word V, Word &NewRef, CensusKind K, SizeFn Words);

  /// Resolve one value of the given type code: claim it, push it grey if
  /// it has fields, and return its new reference. None of them scans, so
  /// the call chain drain -> scan* -> resolve* -> claim has a fixed depth.
  Word resolveCompiled(Word V, RoutineId R);
  Word resolveDesc(Word V, DescId D, const DescEnvNode *Env);
  Word resolveTg(Word V, const TypeGc *Tg);
  /// \p FunTg is the function-type routine (for recovering the lambda's
  /// type parameters); when null, \p StaticFunTy (ground) is evaluated
  /// instead if needed.
  Word resolveClosure(Word V, const TypeGc *FunTg, Type *StaticFunTy);

  /// The one field write: patches field \p F of grey object \p Obj and
  /// mirrors it as a heap-graph edge when the field's type can hold a
  /// reference. Null and nullary-constructor children are filtered when
  /// the capture is finalized.
  void setField(Word Obj, uint32_t F, Word Child, bool MayRef = true) {
    Sp.payload(Obj)[F] = Child;
    if (EdgeRec && MayRef) [[unlikely]]
      Prof->recordEdge(Obj, F, Child);
  }

  /// Pops and scans grey objects until none is left. The scans resolve an
  /// object's fields last to first, so its first field is scanned next.
  void drain();
  /// drain() for one frame slot, then records it as a heap-graph root.
  void drainRoot(uint32_t Func, uint32_t Slot, Word Value, bool MayRef);
  /// Scan one grey object: resolve each field by its type code.
  void scanRoutine(Word Obj, RoutineId R);
  void scanDesc(Word Obj, DescId D, const DescEnvNode *Env);
  void scanDescData(Word Obj, DescId D, const DescEnvNode *Env,
                    const Descriptor &Desc);
  void scanTg(Word Obj, const TypeGc *Tg);
  void scanClosure(Word Obj, FuncId L, const TypeGc *FunTg);

  DescriptorTable &descTable() {
    return Method == TraceMethod::Appel ? AM->descriptors()
                                        : IM->descriptors();
  }
  /// The descriptor walk visits leaf fields too (ints, floats, ...);
  /// they hold no reference, so they yield no graph edge.
  bool isLeaf(DescId D) { return descTable().desc(D).Kind == DescKind::Leaf; }

  const ClosureDescriptor &closureDescriptor(FuncId L) const;
  DescBinding resolveArg(DescId A, const DescEnvNode *Env);
  bool bindingsEqual(const DescBinding &A, const DescBinding &B);
};

} // namespace tfgc

#endif // TFGC_CORE_TRACER_H
