// MatMul with the MDH pragma (cf. the paper's Listings 1-2)
#pragma mdh out(C: float[I][J]) inp(A: float[I][K], B: float[K][J]) \
            combine_ops(cc, cc, pw(add))
for (int i = 0; i < I; i++)
    for (int j = 0; j < J; j++)
        for (int k = 0; k < K; k++)
            C[i][j] = A[i][k] * B[k][j];
