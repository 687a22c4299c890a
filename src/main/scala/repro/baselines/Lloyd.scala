package repro.baselines

import repro.core._

/** Lloyd's algorithm [39]: the exact reference every accelerator must
  * match. n·k distances per iteration, no bookkeeping beyond the
  * assignment array.
  */
final class Lloyd extends KMeansAlgo {
  override def name: String = "Lloyd"

  override def extraMemoryFloats(n: Long, k: Long, d: Long): Long = 0L

  override def run(
      data: Array[Array[Double]],
      k: Int,
      maxIters: Int,
      init: Array[Array[Double]],
  ): KMeansResult = {
    require(maxIters >= 1, "need at least one iteration")
    val n = data.length
    val rec = new RunRecorder
    val counter = new DistanceCounter
    rec.markInitDone()

    var centroids = init.map(_.clone())
    val a = new Array[Int](n)
    var it = 0
    var converged = false
    val drifts = new Array[Double](k)
    val nn = new KMeans.Nearest

    while (it < maxIters && !converged) {
      var i = 0
      while (i < n) { a(i) = KMeans.nearest(data(i), centroids, counter, nn).i1; i += 1 }
      centroids = KMeans.refine(data, a, centroids, drifts)
      it += 1
      converged = KMeans.maxDrift(drifts) <= KMeans.Eps
      rec.markIterDone()
    }

    KMeansResult(centroids, a, it, rec.initMs, rec.iterMs, counter.count, 0L, 0L)
  }
}
