#include "qif/core/training_server.hpp"

#include <stdexcept>
#include <string>

namespace qif::core {

ml::TrainResult TrainingServer::fit(const monitor::TableView& train_ds) {
  if (train_ds.empty()) throw std::invalid_argument("cannot train on an empty dataset");
  const monitor::ViewRows rows(train_ds);
  return fit_rows(rows);
}

ml::TrainResult TrainingServer::fit_rows(const monitor::RowAccess& rows) {
  if (rows.empty()) throw std::invalid_argument("cannot train on an empty dataset");
  ml::KernelNetConfig net_cfg;
  net_cfg.per_server_dim = rows.dim();
  net_cfg.n_servers = rows.n_servers();
  net_cfg.n_classes = config_.n_classes;
  net_cfg.kernel_hidden = config_.kernel_hidden;
  net_cfg.head_hidden = config_.head_hidden;
  net_cfg.seed = config_.seed;
  model_.kernel = ml::KernelNet(net_cfg);
  model_.n_classes = config_.n_classes;

  ml::TrainConfig tc = config_.train;
  tc.seed = sim::Rng::derive_seed(config_.seed, "train");
  const ml::Trainer trainer(tc);
  return trainer.train_rows(model_.kernel, model_.stdz, rows);
}

ml::ConfusionMatrix TrainingServer::evaluate(const monitor::TableView& test_ds) const {
  return ml::Trainer::evaluate(model_.kernel, model_.stdz, test_ds);
}

ml::ConfusionMatrix TrainingServer::evaluate_rows(const monitor::RowAccess& rows) const {
  return ml::Trainer::evaluate_rows(model_.kernel, model_.stdz, rows);
}

int TrainingServer::predict(std::vector<double> features) const {
  model_.stdz.transform(features);
  return model_.kernel.predict(ml::MatView(features.data(), 1, features.size()))[0];
}

std::vector<double> TrainingServer::predict_proba(std::vector<double> features) const {
  model_.stdz.transform(features);
  const ml::Matrix p = ml::SoftmaxXent::softmax(
      model_.kernel.forward_inference(ml::MatView(features.data(), 1, features.size())));
  return {p.row(0), p.row(0) + p.cols()};
}

std::vector<double> TrainingServer::server_scores(std::vector<double> features) const {
  model_.stdz.transform(features);
  return model_.kernel.server_scores(features);
}

void TrainingServer::save(std::ostream& os) const { serve::save_model(model_, os); }

void TrainingServer::validate_feature_width(int schema_dim) const {
  model_.validate_feature_width(schema_dim);
}

void TrainingServer::load(std::istream& is, int expected_dim) {
  // Checked on a local first: a rejected bundle (parse error, wrong kind,
  // class count or width) must leave the currently deployed model untouched.
  serve::ServingModel model = serve::load_model(is);
  if (model.kind != serve::ServingModel::Kind::kKernel) {
    throw std::runtime_error(
        "model bundle: attention-kind model, the training server runs the kernel net");
  }
  if (model.n_classes < 2) {
    throw std::runtime_error("model bundle: bad class count " +
                             std::to_string(model.n_classes) + " (need at least 2)");
  }
  model.validate_feature_width(expected_dim);
  config_.n_classes = model.n_classes;
  model_ = std::move(model);
}

}  // namespace qif::core
