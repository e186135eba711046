// fp64 MatMul: off the fast path, served by the VM contraction
#pragma mdh out(C: double[I][J]) inp(A: double[I][K], B: double[K][J]) \
            combine_ops(cc, cc, pw(add))
for (int i = 0; i < I; i++)
    for (int j = 0; j < J; j++)
        for (int k = 0; k < K; k++)
            C[i][j] = A[i][k] * B[k][j];
