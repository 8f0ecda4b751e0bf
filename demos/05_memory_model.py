"""Closed-form memory comparison of the three cross-batch memories.

The mixture stores a mean, a packed covariance triangle and one weight
per class; a sample queue stores features plus classifier outputs per
queued sample; a teacher keeps a full parameter copy. The table below is
the plot-ready data for the ratio curves against the class count.
"""
from gmmadapt import MemoryModelInputs, memory_report

PAPER = MemoryModelInputs()  # fd 256, fd_r 64, queue 55,388, teacher 24,000,000

print(f"fd={PAPER.fd} fd_r={PAPER.fd_r} queue_len={PAPER.queue_len} "
      f"teacher_params={PAPER.teacher_params:,}\n")
print(f"{'classes':>8} {'n_gmm':>10} {'n_queue':>12} {'vs queue':>9} {'vs teacher':>10}")
for n_classes in (1, 12, 50, 150, 345):
    rep = memory_report(PAPER, n_classes)
    print(f"{n_classes:>8} {rep.n_gmm:>10,} {rep.n_queue:>12,} "
          f"{rep.ratio_queue:>8.2%} {rep.ratio_teacher:>9.2%}")

rep = memory_report(PAPER, 345)
print(f"\neven at 345 classes the mixture needs only {rep.ratio_queue:.1%} of the "
      f"queue's memory and {rep.ratio_teacher:.1%} of the teacher's.")
print("the footprint is independent of how many batches were processed.")
