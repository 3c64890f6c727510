#ifndef TABLEGAN_CORE_TRAINING_STATE_H_
#define TABLEGAN_CORE_TRAINING_STATE_H_

#include <memory>

#include "core/info_loss.h"
#include "core/table_gan.h"
#include "nn/optimizer.h"
#include "nn/spectral_norm.h"

namespace tablegan {
namespace core {

/// Fit's mutable training state beyond the model itself: the three
/// optimizers, the info-loss EWMA statistics, the divergence guard, the
/// spectral-norm power-iteration vectors (kSpectralNorm only) and the
/// rollback count. TableGan::Serialize lists what of it a checkpoint
/// holds; resume and the guard's rollback restore it through one parser.
struct TableGan::TrainingState {
  TrainingState(TableGan* gan, const TableGanOptions& o);
  int epochs_completed = 0;
  nn::Adam adam_g, adam_d, adam_c;
  InfoLossState info;
  DivergenceGuard guard;
  std::unique_ptr<nn::SpectralNormRegularizer> sn;
  int64_t rollbacks_used = 0;
};

}  // namespace core
}  // namespace tablegan

#endif  // TABLEGAN_CORE_TRAINING_STATE_H_
