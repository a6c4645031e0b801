// TurboFNO public API v6 — curated, versioned facade.
//
//   #include "core/api.hpp"
//
//   turbofno::Engine engine;
//   const auto model = engine.register_model(turbofno::Fno1dConfig{});
//   auto session = engine.create_session(model, /*capacity_hint=*/8);
//   session.run(input, output, /*batch=*/3);   // any batch; capacity is elastic
//
// This header exports exactly the supported surface: Engine/Session, the
// model configs (Backend::Auto included), the direct Fno models, weight
// serialization, the serving layer (in-process turbofno::serve and the
// socket front-end turbofno::net — wire protocol, SocketServer, Client),
// the sharded multi-process layer (turbofno::shard — Topology, Router,
// Worker, Supervisor), and the tracing vocabulary.  Deeper
// layers (fft/, gemm/, fused/ pipelines, gpusim/) remain available through
// their own headers but are not part of the v6 compatibility surface.
//
// v3 removed the v1 batch-frozen Fno1d(cfg, batch) / Fno2d(cfg, batch)
// constructors (deprecated since v2): use Fno1d(cfg) + reserve(batch), or
// an Engine session.  See README "Public API".
// v4 removed the fft real-spectral setter/getter pair and its environment
// knob; the RFFT lane is the only real-input route.
// v5 made Fno1d/Fno2d aliases of one class template Fno<Config> and gave
// every registration entry point (Engine, InferenceServer, SocketServer,
// shard::Topology) one ModelConfig overload in place of an
// Fno1dConfig/Fno2dConfig pair; gather_weights/scatter_weights became
// templates over Fno<Config>.  Calls passing either config still compile.
// shard::ModelEntry now holds one `ModelConfig cfg` in place of a 1D/2D
// tag and two configs.
// v6 made SpectralConv1d/2d aliases of one class template
// SpectralConv<Problem> (positional constructors unchanged, plus one taking
// the baseline problem) and removed Fno2dConfig::scheme: PerMode is 1D-only
// and a 2D model could only be Shared.  Fno's spectral_layers() element is
// SpectralConv<Problem>; the make_spectral_layer overloads gave way to
// layer_problem(cfg).
#pragma once

// Major version of the public surface below.  Bumped when a deprecated
// entry point is removed or an exported type changes incompatibly.
#define TURBOFNO_API_VERSION 6

#include "core/config.hpp"            // IWYU pragma: export
#include "core/engine.hpp"            // IWYU pragma: export
#include "core/fno.hpp"               // IWYU pragma: export
#include "core/serialize.hpp"         // IWYU pragma: export
#include "core/spectral_conv.hpp"     // IWYU pragma: export
#include "core/workload.hpp"          // IWYU pragma: export
#include "fused/ladder.hpp"           // IWYU pragma: export
#include "net/client.hpp"             // IWYU pragma: export
#include "net/protocol.hpp"           // IWYU pragma: export
#include "net/socket_server.hpp"      // IWYU pragma: export
#include "serve/server.hpp"           // IWYU pragma: export
#include "shard/router.hpp"           // IWYU pragma: export
#include "shard/supervisor.hpp"       // IWYU pragma: export
#include "shard/topology.hpp"         // IWYU pragma: export
#include "shard/worker.hpp"           // IWYU pragma: export
#include "tensor/complex.hpp"         // IWYU pragma: export
#include "tensor/tensor.hpp"          // IWYU pragma: export
#include "trace/counters.hpp"         // IWYU pragma: export
#include "trace/table.hpp"            // IWYU pragma: export

namespace turbofno {

// The curated surface, re-exported at the top level.
using core::Backend;          // = fused::Variant, including Backend::Auto
using core::Engine;
using core::EngineOptions;
using core::Fno1d;
using core::Fno1dConfig;
using core::Fno2d;
using core::Fno2dConfig;
using core::ModelConfig;
using core::ModelHandle;
using core::Session;
using core::WeightBundle;
using core::WeightScheme;
using core::gather_weights;
using core::load_bundle;
using core::load_bundle_file;
using core::save_bundle;
using core::save_bundle_file;
using core::scatter_weights;

}  // namespace turbofno
